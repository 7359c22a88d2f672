//! Systematic schedule exploration: iterative-deepening BFS over sparse
//! deviation lists with sleep-set-style pruning.
//!
//! Every schedule is visited exactly once: a child schedule extends its
//! parent with one deviation at a step *strictly after* the parent's
//! last deviation, so the (schedule → children) relation forms a tree
//! rooted at the default schedule. The BFS queue orders schedules by
//! deviation count, which is exactly iterative deepening on the number
//! of preemptions — shallow (likelier) interleavings first.

use crate::run::{run_schedule, RunOutcome, Violation, MAX_EVENTS};
use crate::scenario::Scenario;
use crate::trace::{encode_trace, Choice, Schedule};
use std::collections::VecDeque;

/// Maximum deviations per schedule: the depth bound, and with it the
/// preemption bound (every deviation may be a `Pick`).
const MAX_DEVS: usize = 3;
/// Maximum `Dup` deviations per schedule.
const MAX_DUPS: usize = 1;
/// How far down the eligible frontier a deviation may reach: only
/// slots `< PICK_WINDOW` are considered. Bounds per-step branching.
const PICK_WINDOW: usize = 4;

/// Exploration budgets.
#[derive(Clone, Copy, Debug)]
pub struct ExploreConfig {
    /// Stop after this many distinct feasible schedules.
    pub max_schedules: usize,
    /// Stop at the first violation (mutation smoke-tests) instead of
    /// exhausting the budget.
    pub stop_at_first: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig { max_schedules: 10_000, stop_at_first: false }
    }
}

/// A violation found during exploration, already minimized.
#[derive(Clone, Debug)]
pub struct FoundViolation {
    /// The minimal schedule still producing the violation.
    pub schedule: Schedule,
    /// The violation seen on the *original* (pre-minimization) schedule.
    pub violation: Violation,
    /// Replayable trace of the minimal schedule (`FLUX_MC_TRACE` format).
    pub trace: String,
}

/// Aggregate exploration statistics.
#[derive(Clone, Debug, Default)]
pub struct ExploreStats {
    /// Distinct feasible schedules executed.
    pub schedules: usize,
    /// Schedules rejected as infeasible (should be 0 for generated ones).
    pub invalid: usize,
    /// Child deviations pruned by the commuting-pick (sleep set) rule.
    pub pruned: usize,
    /// Largest eligible frontier seen.
    pub max_frontier: u16,
}

/// The result of one exploration.
#[derive(Clone, Debug, Default)]
pub struct ExploreReport {
    /// Statistics.
    pub stats: ExploreStats,
    /// All violations found (empty = the scenario passed its budget).
    pub violations: Vec<FoundViolation>,
}

/// Explores `scenario` within `cfg`'s budgets.
pub fn explore(scenario: &Scenario, cfg: &ExploreConfig) -> ExploreReport {
    let mut report = ExploreReport::default();
    let mut queue: VecDeque<Schedule> = VecDeque::new();
    queue.push_back(Schedule::empty());

    while let Some(sched) = queue.pop_front() {
        if report.stats.schedules >= cfg.max_schedules {
            break;
        }
        let out = run_schedule(scenario, &sched, MAX_EVENTS);
        if !out.valid {
            report.stats.invalid += 1;
            continue;
        }
        report.stats.schedules += 1;
        for info in &out.steps {
            report.stats.max_frontier = report.stats.max_frontier.max(info.eligible);
        }

        if let Some(violation) = out.violation {
            let schedule = minimize(scenario, &sched);
            let trace = encode_trace(scenario.name, &schedule);
            report.violations.push(FoundViolation { schedule, violation, trace });
            if cfg.stop_at_first {
                break;
            }
            // A violating schedule's suffix behaviour is already broken;
            // expanding it would only find shadows of the same bug.
            continue;
        }

        if sched.devs.len() < MAX_DEVS {
            expand(&sched, &out, cfg, &mut queue, &mut report.stats);
        }
    }
    report
}

/// Pushes every non-pruned child of `sched` onto the queue, respecting
/// the remaining schedule budget (children beyond it would never run).
fn expand(
    sched: &Schedule,
    out: &RunOutcome,
    cfg: &ExploreConfig,
    queue: &mut VecDeque<Schedule>,
    stats: &mut ExploreStats,
) {
    let first_step = sched.last_step().map_or(0, |s| s + 1);
    let can_dup = sched.dups() < MAX_DUPS;
    for step in first_step..out.steps.len() as u32 {
        let info = &out.steps[step as usize];
        let window = (info.eligible as usize).min(PICK_WINDOW);
        for n in 1..window {
            if info.prunable[n] {
                stats.pruned += 1;
                continue;
            }
            if stats.schedules + queue.len() >= cfg.max_schedules {
                return;
            }
            queue.push_back(sched.extended(step, Choice::Pick(n as u16)));
        }
        if can_dup {
            for n in 0..window {
                if !info.dupable[n] {
                    continue;
                }
                if stats.schedules + queue.len() >= cfg.max_schedules {
                    return;
                }
                queue.push_back(sched.extended(step, Choice::Dup(n as u16)));
            }
        }
    }
}

/// Greedily minimizes a violating schedule: repeatedly drops any single
/// deviation whose removal preserves *some* violation. The result is
/// 1-minimal — removing any remaining deviation yields a clean run.
fn minimize(scenario: &Scenario, sched: &Schedule) -> Schedule {
    let mut current = sched.clone();
    loop {
        let mut improved = false;
        for i in 0..current.devs.len() {
            let mut trial = current.clone();
            trial.devs.remove(i);
            let out = run_schedule(scenario, &trial, MAX_EVENTS);
            if out.valid && out.violation.is_some() {
                current = trial;
                improved = true;
                break;
            }
        }
        if !improved {
            return current;
        }
    }
}

/// Replays a `FLUX_MC_TRACE` string: decodes it, looks the scenario up
/// by name, and runs the schedule once.
pub fn replay_trace(trace: &str) -> Result<RunOutcome, String> {
    let (name, sched) = crate::trace::decode_trace(trace)?;
    let scenario = Scenario::by_name(&name)
        .ok_or_else(|| format!("trace names unknown scenario {name:?}"))?;
    let out = run_schedule(&scenario, &sched, MAX_EVENTS);
    if !out.valid {
        return Err(format!("trace {trace:?} is infeasible on scenario {name:?}"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ExploreConfig {
        ExploreConfig { max_schedules: 200, ..ExploreConfig::default() }
    }

    #[test]
    fn small_exploration_of_live_tree_is_clean() {
        let report = explore(&Scenario::kvs_commit(), &small());
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.stats.schedules, 200);
        assert_eq!(report.stats.invalid, 0);
        assert!(report.stats.pruned > 0, "sleep-set pruning never fired");
    }

    #[test]
    fn killing_a_broker_shrinks_the_explored_state_space() {
        // The default schedule's frontiers are the branching points: each
        // slot past the first is a one-deviation child. Killing the idle
        // leaf broker must shrink them: deliveries destined for the dead
        // actor are no longer listed as pending, so they stop being
        // pickable (and exploration stays violation-free — the surviving
        // branch is unaffected under every remaining interleaving).
        let branching = |scenario: &Scenario| -> usize {
            let out = run_schedule(scenario, &Schedule::empty(), MAX_EVENTS);
            assert!(out.violation.is_none(), "{:?}", out.violation);
            out.steps.iter().map(|s| usize::from(s.eligible) - 1).sum()
        };
        let with_kill = Scenario::kvs_commit_kill();
        let mut without_kill = with_kill.clone();
        without_kill.kill = None;
        let (base, killed) = (branching(&without_kill), branching(&with_kill));
        assert!(
            killed < base,
            "dead-target filtering must shrink the schedule space: \
             {killed} (kill) vs {base} (no kill) branching points"
        );
        let report = explore(&with_kill, &small());
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn replay_of_default_trace_runs() {
        let out = replay_trace("flux-mc:v1:kvs_commit:-").expect("replayable");
        assert!(out.violation.is_none());
        assert!(replay_trace("flux-mc:v1:unknown:-").is_err());
    }
}
