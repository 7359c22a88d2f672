//! Pluggable schedulers.
//!
//! Each Flux instance runs its own scheduler over its own grant (child
//! empowerment). Both built-in policies are power-aware: a job only
//! starts if its node count *and* its power draw fit the instance's
//! remaining budget, which is how center-level power capping reaches
//! individual jobs through the hierarchy.

use crate::jobspec::{Elasticity, JobSpec};

/// What the scheduler can see of a running job.
#[derive(Clone, Copy, Debug)]
pub struct RunningView {
    /// Nodes held.
    pub nodes: u32,
    /// Watts held.
    pub power_w: u64,
    /// Virtual end time (start + walltime).
    pub end_ns: u64,
}

/// A decision to start the queued job at `queue_idx` with `nodes` nodes
/// (relevant for moldable jobs; rigid jobs always get their nominal
/// size).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Start {
    /// Index into the queue slice passed to [`Scheduler::schedule`].
    pub queue_idx: usize,
    /// Granted node count.
    pub nodes: u32,
}

/// A scheduling policy.
pub trait Scheduler: Send {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Given the pending queue (in arrival order), free capacity, and the
    /// running set, decide which jobs start now. Decisions are applied in
    /// the returned order; implementations must not over-commit (the
    /// instance validates and panics on violation).
    fn schedule(
        &mut self,
        queue: &[JobSpec],
        free_nodes: u32,
        free_power_w: u64,
        now_ns: u64,
        running: &[RunningView],
    ) -> Vec<Start>;
}

/// The node count a spec starts with given free capacity (moldable jobs
/// shrink to fit; rigid jobs start at nominal).
fn start_size(spec: &JobSpec, free_nodes: u32) -> Option<u32> {
    match spec.elasticity {
        Elasticity::Rigid => (spec.nodes <= free_nodes).then_some(spec.nodes),
        Elasticity::Moldable { min, max } => {
            let n = free_nodes.min(max);
            (n >= min).then_some(n)
        }
    }
}

/// First-come-first-served: start jobs strictly in queue order until the
/// head no longer fits.
#[derive(Default, Debug, Clone, Copy)]
pub struct Fcfs;

impl Scheduler for Fcfs {
    fn name(&self) -> &'static str {
        "fcfs"
    }

    fn schedule(
        &mut self,
        queue: &[JobSpec],
        mut free_nodes: u32,
        mut free_power_w: u64,
        _now_ns: u64,
        _running: &[RunningView],
    ) -> Vec<Start> {
        let mut out = Vec::new();
        for (i, spec) in queue.iter().enumerate() {
            let Some(n) = start_size(spec, free_nodes) else { break };
            if spec.power_at(n) > free_power_w {
                break;
            }
            free_nodes -= n;
            free_power_w -= spec.power_at(n);
            out.push(Start { queue_idx: i, nodes: n });
        }
        out
    }
}

/// EASY backfilling: FCFS, plus jobs further back in the queue may start
/// out of order if doing so cannot delay the queue head's reservation.
///
/// The head's *shadow time* is the earliest instant enough running jobs
/// will have ended for the head to start; backfilled jobs must either end
/// before the shadow time or use only nodes the head will not need.
#[derive(Default, Debug, Clone, Copy)]
pub struct EasyBackfill;

impl Scheduler for EasyBackfill {
    fn name(&self) -> &'static str {
        "easy-backfill"
    }

    fn schedule(
        &mut self,
        queue: &[JobSpec],
        free_nodes: u32,
        free_power_w: u64,
        now_ns: u64,
        running: &[RunningView],
    ) -> Vec<Start> {
        // Phase 1: plain FCFS prefix.
        let mut out = Fcfs.schedule(queue, free_nodes, free_power_w, now_ns, running);
        let started: Vec<usize> = out.iter().map(|s| s.queue_idx).collect();
        let mut free_nodes = free_nodes
            - out.iter().map(|s| s.nodes).sum::<u32>();
        let mut free_power_w = free_power_w
            - out
                .iter()
                .map(|s| queue[s.queue_idx].power_at(s.nodes))
                .sum::<u64>();
        // The first job that did NOT start is the head we must protect.
        let Some(head_idx) = (0..queue.len()).find(|i| !started.contains(i)) else {
            return out;
        };
        let head = &queue[head_idx];

        // Shadow time: walk running jobs by end time until the head fits.
        // (Jobs we just started run for their full walltime from now.)
        let mut ends: Vec<(u64, u32, u64)> = running
            .iter()
            .map(|r| (r.end_ns, r.nodes, r.power_w))
            .collect();
        ends.extend(out.iter().map(|s| {
            let spec = &queue[s.queue_idx];
            (now_ns + spec.walltime_ns, s.nodes, spec.power_at(s.nodes))
        }));
        ends.sort_unstable();
        let mut avail_nodes = free_nodes;
        let mut avail_power = free_power_w;
        let mut shadow = u64::MAX;
        let mut extra_nodes_at_shadow = 0u32;
        for (end, nodes, power) in ends {
            if avail_nodes >= head.nodes && avail_power >= head.power_at(head.nodes) {
                break;
            }
            avail_nodes += nodes;
            avail_power += power;
            shadow = end;
        }
        if avail_nodes >= head.nodes && avail_power >= head.power_at(head.nodes) {
            extra_nodes_at_shadow = avail_nodes - head.nodes;
        }

        // Phase 2: backfill later jobs.
        for (i, spec) in queue.iter().enumerate().skip(head_idx + 1) {
            let Some(n) = start_size(spec, free_nodes) else { continue };
            if spec.power_at(n) > free_power_w {
                continue;
            }
            let ends_before_shadow = shadow == u64::MAX || now_ns + spec.walltime_ns <= shadow;
            let fits_beside_head = n <= extra_nodes_at_shadow;
            if ends_before_shadow || fits_beside_head {
                free_nodes -= n;
                free_power_w -= spec.power_at(n);
                if !ends_before_shadow {
                    extra_nodes_at_shadow -= n;
                }
                out.push(Start { queue_idx: i, nodes: n });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(nodes: u32, walltime: u64) -> JobSpec {
        JobSpec::rigid(format!("j{nodes}x{walltime}"), nodes, walltime).with_power(100)
    }

    #[test]
    fn fcfs_starts_in_order_until_blocked() {
        let queue = [job(2, 10), job(3, 10), job(100, 10), job(1, 10)];
        let starts = Fcfs.schedule(&queue, 8, 1_000_000, 0, &[]);
        // 2 + 3 fit; 100 blocks; FCFS must NOT skip ahead to the 1-node job.
        assert_eq!(
            starts,
            [Start { queue_idx: 0, nodes: 2 }, Start { queue_idx: 1, nodes: 3 }]
        );
    }

    #[test]
    fn fcfs_respects_power_budget() {
        let queue = [job(2, 10), job(2, 10)];
        // Power for only one job (2 nodes × 100 W).
        let starts = Fcfs.schedule(&queue, 8, 200, 0, &[]);
        assert_eq!(starts.len(), 1);
    }

    #[test]
    fn moldable_jobs_shrink_to_fit() {
        let queue = [JobSpec::rigid("m", 8, 10).with_power(0).moldable(2, 8)];
        let starts = Fcfs.schedule(&queue, 4, 1_000_000, 0, &[]);
        assert_eq!(starts, [Start { queue_idx: 0, nodes: 4 }]);
        // Below min it cannot start.
        let starts = Fcfs.schedule(&queue, 1, 1_000_000, 0, &[]);
        assert!(starts.is_empty());
    }

    #[test]
    fn backfill_fills_holes_without_delaying_head() {
        // 8 nodes; a 6-node job runs until t=100. Queue: head needs 8
        // (waits for t=100), then a 2-node × 50 job that finishes before
        // the shadow — backfillable.
        let running = [RunningView { nodes: 6, power_w: 600, end_ns: 100 }];
        let queue = [job(8, 1000), job(2, 50)];
        let starts = EasyBackfill.schedule(&queue, 2, 10_000, 0, &running);
        assert_eq!(starts, [Start { queue_idx: 1, nodes: 2 }]);
    }

    #[test]
    fn backfill_refuses_jobs_that_would_delay_head() {
        let running = [RunningView { nodes: 6, power_w: 600, end_ns: 100 }];
        // The backfill candidate runs past the shadow time AND would eat
        // nodes the head needs.
        let queue = [job(8, 1000), job(2, 500)];
        let starts = EasyBackfill.schedule(&queue, 2, 10_000, 0, &running);
        assert!(starts.is_empty(), "{starts:?}");
    }

    #[test]
    fn backfill_allows_long_jobs_on_spare_nodes() {
        // 10 free nodes; head needs 8 as soon as the 6-node job ends.
        // After the head starts there will be 10+6-8 = wait — build the
        // simpler case: free 4, running 6 ending at 100, head wants 8:
        // shadow=100, at shadow avail=10, extra = 2. A 2-node long job
        // fits beside the head indefinitely.
        let running = [RunningView { nodes: 6, power_w: 600, end_ns: 100 }];
        let queue = [job(8, 1000), job(2, 10_000)];
        let starts = EasyBackfill.schedule(&queue, 4, 100_000, 0, &running);
        assert_eq!(starts, [Start { queue_idx: 1, nodes: 2 }]);
    }

    #[test]
    fn backfill_equals_fcfs_when_everything_fits() {
        let queue = [job(1, 10), job(2, 20), job(3, 30)];
        let f = Fcfs.schedule(&queue, 10, 10_000, 0, &[]);
        let b = EasyBackfill.schedule(&queue, 10, 10_000, 0, &[]);
        assert_eq!(f, b);
    }

    #[test]
    fn backfill_beats_fcfs_on_utilization() {
        let running = [RunningView { nodes: 7, power_w: 700, end_ns: 1_000 }];
        let queue = [job(8, 100), job(1, 100), job(1, 100)];
        let f = Fcfs.schedule(&queue, 1, 10_000, 0, &running);
        let b = EasyBackfill.schedule(&queue, 1, 10_000, 0, &running);
        assert!(f.is_empty());
        assert_eq!(b.len(), 1, "one 1-node job backfills: {b:?}");
    }
}
