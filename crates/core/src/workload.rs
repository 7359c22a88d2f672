//! Synthetic workload generators.
//!
//! The paper motivates the new paradigm with workloads that are "diverse,
//! dynamic, and large, ... moving away from individual monolithic jobs.
//! Instead, ensembles of jobs, e.g., for Uncertainty Quantification or
//! Scale-bridging Applications, are becoming increasingly commonplace."
//! These generators produce seeded, reproducible job streams in those
//! shapes for the scheduler benches and examples.

use crate::jobspec::JobSpec;
use crate::rng::Rng;

/// A seeded workload generator.
pub struct Workload {
    rng: Rng,
    counter: u64,
}

impl Workload {
    /// Creates a generator with a fixed seed (runs are reproducible).
    pub fn seeded(seed: u64) -> Workload {
        Workload { rng: Rng::seeded(seed), counter: 0 }
    }

    fn next_name(&mut self, prefix: &str) -> String {
        self.counter += 1;
        format!("{prefix}-{}", self.counter)
    }

    /// A UQ-style ensemble: `count` small jobs of nearly uniform shape
    /// (1–2 nodes, walltimes within ±25% of `walltime_ns`).
    pub fn uq_ensemble(&mut self, count: usize, walltime_ns: u64) -> Vec<JobSpec> {
        (0..count)
            .map(|_| {
                let nodes = self.rng.gen_range(1..=2);
                let jitter = self.rng.gen_range(75u64..=125);
                let name = self.next_name("uq");
                JobSpec::rigid(name, nodes, walltime_ns * jitter / 100).with_power(300)
            })
            .collect()
    }

    /// A traditional capability mix: mostly small jobs, a heavy tail of
    /// large ones (log-uniform node counts up to `max_nodes`).
    pub fn capability_mix(&mut self, count: usize, max_nodes: u32, walltime_ns: u64) -> Vec<JobSpec> {
        let max_log = (32 - max_nodes.leading_zeros()).max(1);
        (0..count)
            .map(|_| {
                let log = self.rng.gen_range(0..max_log);
                let nodes = (1u32 << log).min(max_nodes);
                let wall = self.rng.gen_range(walltime_ns / 2..=walltime_ns * 2);
                let name = self.next_name("cap");
                JobSpec::rigid(name, nodes, wall).with_power(350)
            })
            .collect()
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_generation_is_reproducible() {
        let a = Workload::seeded(42).uq_ensemble(20, 1_000);
        let b = Workload::seeded(42).uq_ensemble(20, 1_000);
        assert_eq!(a, b);
        let c = Workload::seeded(43).uq_ensemble(20, 1_000);
        assert_ne!(a, c);
    }

    #[test]
    fn uq_jobs_are_small() {
        let jobs = Workload::seeded(1).uq_ensemble(100, 1_000);
        assert_eq!(jobs.len(), 100);
        for j in &jobs {
            j.validate();
            assert!(j.nodes <= 2);
            assert!((750..=1250).contains(&j.walltime_ns));
        }
    }

    #[test]
    fn capability_mix_has_a_tail() {
        let jobs = Workload::seeded(7).capability_mix(200, 64, 1_000);
        let max = jobs.iter().map(|j| j.nodes).max().unwrap();
        let small = jobs.iter().filter(|j| j.nodes <= 2).count();
        assert!(max >= 16, "tail present, max {max}");
        assert!(small > jobs.len() / 6, "plenty of small jobs: {small}");
        for j in &jobs {
            j.validate();
            assert!(j.nodes <= 64);
        }
    }
}
