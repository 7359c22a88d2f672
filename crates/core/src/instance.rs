//! The unified job model: recursive Flux instances.
//!
//! Paper §III: a job is not merely an allocation — it is an RJMS instance
//! that "can either be used to run a single application or ... run its
//! own job management services, which then can recursively accept and
//! schedule (sub-)jobs". [`Instance`] implements that model with the
//! three hierarchy rules as hard invariants:
//!
//! * **Parent bounding** — an instance can never allocate more nodes or
//!   watts than its grant; attempts panic (they indicate a framework
//!   bug, not a user error).
//! * **Child empowerment** — each instance runs its own [`Scheduler`]
//!   over its own grant; parents never reach into a child's queue.
//! * **Parental consent** — [`Instance::request_grow`] and
//!   [`Instance::shrink_child`] route every elastic change through the
//!   parent, which grants a grow only from its own free capacity.
//!
//! Instances advance on a shared virtual clock ([`Instance::advance`]):
//! jobs complete when their walltime elapses, schedulers run, and
//! sub-instances recurse. This makes the framework a deterministic
//! scheduling engine — the substrate the scheduler-parallelism ablation
//! (A2, EXPERIMENTS.md) measures.

use crate::jobspec::JobSpec;
use crate::sched::{RunningView, Scheduler, Start};
use std::collections::VecDeque;

/// Identifies a job within one instance.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct JobId(pub u64);

/// Lifecycle of a job.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JobState {
    /// Queued, not yet started.
    Pending,
    /// Running with an allocation.
    Running,
    /// Finished (walltime elapsed).
    Complete,
    /// Removed from the queue before starting.
    Canceled,
}

/// A completed/ongoing job record for reports.
#[derive(Clone, Debug)]
pub struct JobEvent {
    /// The job.
    pub id: JobId,
    /// Spec it ran with.
    pub spec: JobSpec,
    /// Submission time.
    pub submit_ns: u64,
    /// Start time (if started).
    pub start_ns: Option<u64>,
    /// End time (if finished).
    pub end_ns: Option<u64>,
    /// Nodes it held while running.
    pub nodes: u32,
    /// Final state.
    pub state: JobState,
}

struct PendingJob {
    id: JobId,
    spec: JobSpec,
    submit_ns: u64,
}

struct RunningJob {
    id: JobId,
    spec: JobSpec,
    submit_ns: u64,
    start_ns: u64,
    end_ns: u64,
    nodes: u32,
    power_w: u64,
}

/// Why a grow request was denied.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GrowError {
    /// The parent has no such child.
    UnknownChild,
    /// Not enough free nodes or power at the parent right now.
    Insufficient,
}

/// Instance construction parameters.
#[derive(Clone, Debug)]
pub struct InstanceConfig {
    /// Name for reports (`"center"`, `"uq-ensemble"`, …).
    pub name: String,
    /// Node grant.
    pub nodes: u32,
    /// Power grant in watts.
    pub power_w: u64,
}

impl InstanceConfig {
    /// A grant of `nodes` nodes with a generous default power envelope
    /// (500 W/node).
    pub fn new(name: impl Into<String>, nodes: u32) -> InstanceConfig {
        InstanceConfig { name: name.into(), nodes, power_w: u64::from(nodes) * 500 }
    }

    /// Overrides the power grant.
    pub fn with_power(mut self, watts: u64) -> InstanceConfig {
        self.power_w = watts;
        self
    }
}

/// A Flux instance: a resource grant, a scheduler, a queue, running jobs,
/// and child instances.
pub struct Instance {
    /// Name for reports.
    pub name: String,
    grant_nodes: u32,
    grant_power_w: u64,
    used_nodes: u32,
    used_power_w: u64,
    /// Watts of `grant_power_w` above the last [`Instance::cap_power`]
    /// cap, held only while running work still draws them.
    power_over_cap_w: u64,
    scheduler: Box<dyn Scheduler>,
    queue: VecDeque<PendingJob>,
    running: Vec<RunningJob>,
    children: Vec<(JobId, Instance)>,
    history: Vec<JobEvent>,
    next_job: u64,
    now_ns: u64,
}

impl Instance {
    /// Creates a root instance (a whole center or cluster session).
    pub fn root(config: InstanceConfig, scheduler: Box<dyn Scheduler>) -> Instance {
        Instance {
            name: config.name,
            grant_nodes: config.nodes,
            grant_power_w: config.power_w,
            used_nodes: 0,
            used_power_w: 0,
            power_over_cap_w: 0,
            scheduler,
            queue: VecDeque::new(),
            running: Vec::new(),
            children: Vec::new(),
            history: Vec::new(),
            next_job: 0,
            now_ns: 0,
        }
    }

    /// Current virtual time.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// The node grant.
    pub fn grant_nodes(&self) -> u32 {
        self.grant_nodes
    }

    /// The power grant in watts.
    pub fn grant_power_w(&self) -> u64 {
        self.grant_power_w
    }

    /// Free nodes right now.
    pub fn free_nodes(&self) -> u32 {
        self.grant_nodes - self.used_nodes
    }

    /// Free watts right now.
    pub fn free_power_w(&self) -> u64 {
        self.grant_power_w - self.used_power_w
    }

    /// Queued job count.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Running job count (including child instances).
    pub fn running_len(&self) -> usize {
        self.running.len()
    }

    /// The completed/canceled job history.
    pub fn history(&self) -> &[JobEvent] {
        &self.history
    }

    /// Submits a job; the scheduler runs immediately, so the job may be
    /// running when this returns.
    pub fn submit(&mut self, spec: JobSpec) -> JobId {
        spec.validate();
        self.next_job += 1;
        let id = JobId(self.next_job);
        self.queue.push_back(PendingJob { id, spec, submit_ns: self.now_ns });
        self.tick(self.now_ns);
        id
    }

    /// Cancels a pending job. Returns false if it is not in the queue.
    pub fn cancel(&mut self, id: JobId) -> bool {
        if let Some(pos) = self.queue.iter().position(|p| p.id == id) {
            let p = self.queue.remove(pos).expect("position valid");
            self.history.push(JobEvent {
                id: p.id,
                spec: p.spec,
                submit_ns: p.submit_ns,
                start_ns: None,
                end_ns: None,
                nodes: 0,
                state: JobState::Canceled,
            });
            true
        } else {
            false
        }
    }

    /// Creates a child instance inside this one, leasing it `config.nodes`
    /// nodes and `config.power_w` watts from this instance's grant. The
    /// child appears as a running job (the unified job model) until
    /// [`Instance::close_child`].
    ///
    /// Returns `None` if the lease does not fit right now.
    pub fn spawn_child(
        &mut self,
        config: InstanceConfig,
        scheduler: Box<dyn Scheduler>,
    ) -> Option<JobId> {
        if config.nodes > self.free_nodes() || config.power_w > self.free_power_w() {
            return None;
        }
        self.next_job += 1;
        let id = JobId(self.next_job);
        self.used_nodes += config.nodes;
        self.used_power_w += config.power_w;
        let mut child = Instance::root(config, scheduler);
        child.now_ns = self.now_ns;
        self.children.push((id, child));
        Some(id)
    }

    /// Borrows a child instance.
    pub fn child(&self, id: JobId) -> Option<&Instance> {
        self.children.iter().find(|(cid, _)| *cid == id).map(|(_, c)| c)
    }

    /// Mutably borrows a child instance (to submit jobs into it).
    pub fn child_mut(&mut self, id: JobId) -> Option<&mut Instance> {
        self.children.iter_mut().find(|(cid, _)| *cid == id).map(|(_, c)| c)
    }

    /// Ids of all child instances.
    pub fn child_ids(&self) -> Vec<JobId> {
        self.children.iter().map(|(id, _)| *id).collect()
    }

    /// Tears down a child instance, returning its lease to this
    /// instance's free pool. The child must be idle (no running jobs).
    ///
    /// # Panics
    /// Panics if the child still has running jobs — destroying a live
    /// allocation would violate child empowerment.
    pub fn close_child(&mut self, id: JobId) -> Option<Instance> {
        let pos = self.children.iter().position(|(cid, _)| *cid == id)?;
        let (_, child) = self.children.remove(pos);
        assert!(
            child.running.is_empty() && child.children.is_empty(),
            "closing child {:?} with live work",
            child.name
        );
        self.used_nodes -= child.grant_nodes;
        self.used_power_w -= child.grant_power_w;
        self.settle_power();
        Some(child)
    }

    /// Parental consent: a child asks to grow by `nodes` nodes and
    /// `power_w` watts. On success the child's grant expands.
    pub fn request_grow(&mut self, id: JobId, nodes: u32, power_w: u64) -> Result<(), GrowError> {
        if nodes > self.free_nodes() || power_w > self.free_power_w() {
            return Err(GrowError::Insufficient);
        }
        let child = self
            .children
            .iter_mut()
            .find(|(cid, _)| *cid == id)
            .map(|(_, c)| c)
            .ok_or(GrowError::UnknownChild)?;
        self.used_nodes += nodes;
        self.used_power_w += power_w;
        child.grant_nodes += nodes;
        child.grant_power_w += power_w;
        Ok(())
    }

    /// Shrinks a child's grant by `nodes`/`power_w`, returning capacity to
    /// this instance. Only capacity the child is not using can be
    /// reclaimed; the rest is refused (the child keeps running — shrink
    /// is cooperative, not preemptive).
    pub fn shrink_child(&mut self, id: JobId, nodes: u32, power_w: u64) -> Result<(), GrowError> {
        let child = self
            .children
            .iter_mut()
            .find(|(cid, _)| *cid == id)
            .map(|(_, c)| c)
            .ok_or(GrowError::UnknownChild)?;
        if nodes > child.free_nodes() || power_w > child.free_power_w() {
            return Err(GrowError::Insufficient);
        }
        child.grant_nodes -= nodes;
        child.grant_power_w -= power_w;
        self.used_nodes -= nodes;
        self.used_power_w -= power_w;
        self.settle_power();
        Ok(())
    }

    /// Sets this instance's own power grant to `cap_w` (e.g. a site-wide
    /// cap arriving from above). Power is the most elastic resource: the
    /// cap applies immediately to future scheduling. Running work keeps
    /// its draw, so a cap below the draw holds the grant at the draw and
    /// lowers it toward the cap as that power frees up.
    pub fn cap_power(&mut self, cap_w: u64) {
        self.grant_power_w = cap_w.max(self.used_power_w);
        self.power_over_cap_w = self.grant_power_w - cap_w;
    }

    /// Gives up freed watts that are held above the cap.
    fn settle_power(&mut self) {
        let drop = self.power_over_cap_w.min(self.free_power_w());
        self.grant_power_w -= drop;
        self.power_over_cap_w -= drop;
    }

    /// Advances virtual time to `to_ns`: completes due jobs, recurses into
    /// children, and runs the scheduler — repeatedly, since completions
    /// free capacity that lets more jobs start within the same call.
    pub fn advance(&mut self, to_ns: u64) {
        assert!(to_ns >= self.now_ns, "time goes forward");
        loop {
            // Next interesting instant: the earliest running-job end (here
            // or in a child) at or before `to_ns`.
            let next_end = self.earliest_end().filter(|&e| e <= to_ns);
            let step_to = next_end.unwrap_or(to_ns);
            self.tick(step_to);
            if next_end.is_none() {
                break;
            }
        }
    }

    fn earliest_end(&self) -> Option<u64> {
        let mine = self.running.iter().map(|r| r.end_ns).min();
        let theirs = self.children.iter().filter_map(|(_, c)| c.earliest_end()).min();
        match (mine, theirs) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// One step: move the clock, complete jobs due by then, schedule.
    fn tick(&mut self, to_ns: u64) {
        self.now_ns = to_ns;
        // Complete due jobs.
        let mut i = 0;
        while i < self.running.len() {
            if self.running[i].end_ns <= to_ns {
                let r = self.running.swap_remove(i);
                self.used_nodes -= r.nodes;
                self.used_power_w -= r.power_w;
                self.history.push(JobEvent {
                    id: r.id,
                    spec: r.spec,
                    submit_ns: r.submit_ns,
                    start_ns: Some(r.start_ns),
                    end_ns: Some(r.end_ns),
                    nodes: r.nodes,
                    state: JobState::Complete,
                });
            } else {
                i += 1;
            }
        }
        self.settle_power();
        // Children advance on the same clock.
        for (_, child) in &mut self.children {
            child.advance(to_ns);
        }
        // Schedule.
        let specs: Vec<JobSpec> = self.queue.iter().map(|p| p.spec.clone()).collect();
        let running_view: Vec<RunningView> = self
            .running
            .iter()
            .map(|r| RunningView { nodes: r.nodes, power_w: r.power_w, end_ns: r.end_ns })
            .collect();
        let starts: Vec<Start> = self.scheduler.schedule(
            &specs,
            self.free_nodes(),
            self.free_power_w(),
            self.now_ns,
            &running_view,
        );
        // Apply decisions, validating the parent-bounding invariant.
        let mut started_ids = Vec::new();
        for s in &starts {
            let p = &self.queue[s.queue_idx];
            let power = p.spec.power_at(s.nodes);
            assert!(
                s.nodes <= self.free_nodes() && power <= self.free_power_w(),
                "scheduler {} over-committed the grant",
                self.scheduler.name()
            );
            self.used_nodes += s.nodes;
            self.used_power_w += power;
            self.running.push(RunningJob {
                id: p.id,
                spec: p.spec.clone(),
                submit_ns: p.submit_ns,
                start_ns: self.now_ns,
                end_ns: self.now_ns + p.spec.walltime_ns,
                nodes: s.nodes,
                power_w: power,
            });
            started_ids.push(p.id);
        }
        self.queue.retain(|p| !started_ids.contains(&p.id));
    }

    /// Drives the instance until every queued and running job (including
    /// children's) has completed; returns the finish time.
    ///
    /// # Panics
    /// Panics if no progress is possible anywhere in the hierarchy (a
    /// queued job larger than its instance's grant would never start).
    pub fn drain(&mut self) -> u64 {
        loop {
            if self.queue.is_empty() && self.running.is_empty() && self.children_idle() {
                return self.now_ns;
            }
            let before = (self.total_queued(), self.total_running(), self.now_ns);
            match self.earliest_end() {
                Some(e) => self.advance(e),
                None => self.advance(self.now_ns), // schedule-only pass
            }
            let after = (self.total_queued(), self.total_running(), self.now_ns);
            assert!(
                before != after,
                "hierarchy under {:?} is stuck: {} queued jobs can never start",
                self.name,
                after.0,
            );
        }
    }

    fn children_idle(&self) -> bool {
        self.children
            .iter()
            .all(|(_, c)| c.queue.is_empty() && c.running.is_empty() && c.children_idle())
    }

    /// Queued jobs in this instance and all descendants.
    fn total_queued(&self) -> usize {
        self.queue.len() + self.children.iter().map(|(_, c)| c.total_queued()).sum::<usize>()
    }

    /// Running jobs in this instance and all descendants.
    fn total_running(&self) -> usize {
        self.running.len() + self.children.iter().map(|(_, c)| c.total_running()).sum::<usize>()
    }

    /// Debug-invariant check, used by tests: usage within grant at every
    /// level.
    pub fn check_invariants(&self) {
        assert!(self.used_nodes <= self.grant_nodes, "{}: node bound violated", self.name);
        assert!(self.used_power_w <= self.grant_power_w, "{}: power bound violated", self.name);
        let child_nodes: u32 = self.children.iter().map(|(_, c)| c.grant_nodes).sum();
        let running_nodes: u32 = self.running.iter().map(|r| r.nodes).sum();
        assert_eq!(child_nodes + running_nodes, self.used_nodes, "{}: usage accounting", self.name);
        for (_, c) in &self.children {
            c.check_invariants();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{EasyBackfill, Fcfs};

    fn inst(nodes: u32) -> Instance {
        Instance::root(InstanceConfig::new("test", nodes), Box::new(Fcfs))
    }

    #[test]
    fn single_job_lifecycle() {
        let mut i = inst(4);
        let id = i.submit(JobSpec::rigid("a", 2, 100));
        i.advance(0);
        assert_eq!(i.running_len(), 1);
        assert_eq!(i.free_nodes(), 2);
        i.advance(100);
        assert_eq!(i.running_len(), 0);
        assert_eq!(i.free_nodes(), 4);
        let ev = &i.history()[0];
        assert_eq!(ev.id, id);
        assert_eq!(ev.state, JobState::Complete);
        assert_eq!(ev.start_ns, Some(0));
        assert_eq!(ev.end_ns, Some(100));
    }

    #[test]
    fn jobs_queue_when_full_and_start_on_completion() {
        let mut i = inst(4);
        i.submit(JobSpec::rigid("a", 4, 100));
        i.submit(JobSpec::rigid("b", 4, 100));
        i.advance(0);
        assert_eq!(i.running_len(), 1);
        assert_eq!(i.queue_len(), 1);
        // advance() steps through the completion and starts b at t=100.
        i.advance(150);
        assert_eq!(i.running_len(), 1);
        assert_eq!(i.queue_len(), 0);
        let end = i.drain();
        assert_eq!(end, 200);
        assert_eq!(i.history().len(), 2);
    }

    #[test]
    fn drain_detects_impossible_jobs() {
        let mut i = inst(2);
        i.submit(JobSpec::rigid("too-big", 4, 10));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| i.drain()));
        assert!(r.is_err());
    }

    #[test]
    fn cancel_pending_job() {
        let mut i = inst(1);
        i.submit(JobSpec::rigid("a", 1, 1_000));
        let b = i.submit(JobSpec::rigid("b", 1, 1_000));
        i.advance(0);
        assert!(i.cancel(b));
        assert!(!i.cancel(b));
        assert_eq!(i.drain(), 1_000);
        assert_eq!(
            i.history().iter().filter(|e| e.state == JobState::Canceled).count(),
            1
        );
    }

    #[test]
    fn child_instance_lease_and_return() {
        let mut parent = inst(8);
        let child_id = parent
            .spawn_child(InstanceConfig::new("child", 4), Box::new(Fcfs))
            .expect("lease fits");
        assert_eq!(parent.free_nodes(), 4);
        // The child schedules its own jobs within its grant.
        let child = parent.child_mut(child_id).unwrap();
        child.submit(JobSpec::rigid("sub1", 2, 50));
        child.submit(JobSpec::rigid("sub2", 2, 50));
        parent.advance(50);
        parent.check_invariants();
        let child = parent.child(child_id).unwrap();
        assert_eq!(child.history().len(), 2, "both sub-jobs ran in parallel");
        parent.close_child(child_id).unwrap();
        assert_eq!(parent.free_nodes(), 8);
    }

    #[test]
    fn parent_bounding_rejects_oversized_lease() {
        let mut parent = inst(4);
        assert!(parent.spawn_child(InstanceConfig::new("big", 8), Box::new(Fcfs)).is_none());
        // Power bound too.
        let cfg = InstanceConfig::new("hot", 2).with_power(1 << 40);
        assert!(parent.spawn_child(cfg, Box::new(Fcfs)).is_none());
    }

    #[test]
    fn grow_with_parental_consent() {
        let mut parent = inst(8);
        let child_id =
            parent.spawn_child(InstanceConfig::new("c", 2), Box::new(Fcfs)).unwrap();
        assert_eq!(parent.request_grow(child_id, 4, 2_000), Ok(()));
        assert_eq!(parent.child(child_id).unwrap().grant_nodes(), 6);
        assert_eq!(parent.free_nodes(), 2);
        // Too much: refused.
        assert_eq!(parent.request_grow(child_id, 4, 0), Err(GrowError::Insufficient));
        parent.check_invariants();
    }

    #[test]
    fn shrink_returns_unused_capacity_only() {
        let mut parent = inst(8);
        let child_id =
            parent.spawn_child(InstanceConfig::new("c", 4), Box::new(Fcfs)).unwrap();
        parent.child_mut(child_id).unwrap().submit(JobSpec::rigid("busy", 3, 1_000));
        parent.advance(0);
        // Child uses 3 of 4; only 1 reclaimable.
        assert_eq!(parent.shrink_child(child_id, 2, 0), Err(GrowError::Insufficient));
        assert_eq!(parent.shrink_child(child_id, 1, 0), Ok(()));
        assert_eq!(parent.free_nodes(), 5);
        parent.check_invariants();
    }

    #[test]
    fn power_cap_throttles_scheduling() {
        let mut i = Instance::root(
            InstanceConfig::new("capped", 8).with_power(800),
            Box::new(Fcfs),
        );
        // 8 jobs × 1 node × 350 W: only 2 fit in 800 W.
        for k in 0..8 {
            i.submit(JobSpec::rigid(format!("p{k}"), 1, 100));
        }
        i.advance(0);
        assert_eq!(i.running_len(), 2, "power cap binds before nodes do");
        // Lifting the cap lets the rest start.
        i.cap_power(8 * 350);
        i.advance(1);
        assert_eq!(i.running_len(), 8);
        assert_eq!(i.drain(), 101);
    }

    #[test]
    fn power_cap_below_the_draw_binds_once_the_draw_ends() {
        let mut i = Instance::root(
            InstanceConfig::new("capped", 8).with_power(1_400),
            Box::new(Fcfs),
        );
        for k in 0..8 {
            i.submit(JobSpec::rigid(format!("p{k}"), 1, 100));
        }
        assert_eq!(i.running_len(), 4);
        i.cap_power(700);
        assert_eq!(i.grant_power_w(), 1_400, "running jobs keep their draw");
        i.advance(100);
        assert_eq!(i.grant_power_w(), 700, "the grant falls to the cap");
        assert_eq!(i.running_len(), 2, "the next starts fit in 700 W");
        i.check_invariants();
    }

    #[test]
    fn power_held_above_the_cap_falls_when_a_child_closes() {
        let mut parent = inst(8);
        let child = parent.spawn_child(InstanceConfig::new("c", 4), Box::new(Fcfs)).unwrap();
        parent.cap_power(1_000);
        assert_eq!(parent.grant_power_w(), 2_000, "the lease keeps its watts");
        parent.close_child(child).unwrap();
        assert_eq!(parent.grant_power_w(), 1_000);
        parent.check_invariants();
    }

    #[test]
    fn deep_hierarchy_three_levels() {
        let mut center = Instance::root(InstanceConfig::new("center", 32), Box::new(Fcfs));
        let cluster = center
            .spawn_child(InstanceConfig::new("cluster", 16), Box::new(EasyBackfill))
            .unwrap();
        let ensemble = center
            .child_mut(cluster)
            .unwrap()
            .spawn_child(InstanceConfig::new("ensemble", 8), Box::new(Fcfs))
            .unwrap();
        center
            .child_mut(cluster)
            .unwrap()
            .child_mut(ensemble)
            .unwrap()
            .submit(JobSpec::rigid("leafjob", 4, 10));
        center.advance(10);
        center.check_invariants();
        let done = center
            .child(cluster)
            .unwrap()
            .child(ensemble)
            .unwrap()
            .history()
            .len();
        assert_eq!(done, 1);
    }

    #[test]
    fn moldable_jobs_adapt_to_instance_size() {
        let mut i = Instance::root(InstanceConfig::new("m", 6), Box::new(Fcfs));
        i.submit(JobSpec::rigid("mold", 8, 100).with_power(0).moldable(2, 8));
        i.advance(0);
        assert_eq!(i.running_len(), 1);
        assert_eq!(i.free_nodes(), 0, "moldable job shrank to the 6 free nodes");
    }
}
