//! Acceptance tests for the model checker: bulk exploration of the live
//! tree stays clean, and the dedup-disabled mutants are caught with a
//! minimal replayable trace.

use flux_mc::{explore, replay_trace, ExploreConfig, Scenario};

/// A deeper run of the same exploration is the binary's:
/// `cargo run --release -p flux-mc -- kvs_fence --schedules 200000`.
#[test]
fn fence_scenario_explores_ten_thousand_clean_schedules() {
    let budget = 10_000;
    let cfg = ExploreConfig { max_schedules: budget, ..ExploreConfig::default() };
    let report = explore(&Scenario::kvs_fence(), &cfg);
    for v in &report.violations {
        eprintln!("violation: {}\n  replay with: FLUX_MC_TRACE='{}'", v.violation, v.trace);
    }
    assert!(report.violations.is_empty(), "live tree violated an invariant");
    assert!(
        report.stats.schedules >= budget,
        "explored only {} of {budget} schedules: state space exhausted early",
        report.stats.schedules
    );
    assert_eq!(report.stats.invalid, 0, "generated an infeasible child schedule");
    assert!(report.stats.pruned > 0, "sleep-set pruning never fired");
    assert!(report.stats.max_frontier >= 4, "scenario lost its concurrency");
}

#[test]
fn fence_mutant_caught_with_minimal_replayable_trace() {
    let cfg = ExploreConfig { stop_at_first: true, ..ExploreConfig::default() };
    let report = explore(&Scenario::kvs_fence_mutant(), &cfg);
    let found = report.violations.first().expect("dedup-disabled mutant must be caught");
    assert_eq!(
        found.schedule.devs.len(),
        1,
        "a single duplicated frame suffices; minimization left {:?}",
        found.schedule
    );
    assert!(found.trace.starts_with("flux-mc:v1:kvs_fence_mutant:"), "{}", found.trace);

    // The trace must replay to a violation on its own.
    let out = replay_trace(&found.trace).expect("trace is feasible");
    assert!(out.violation.is_some(), "minimal trace did not reproduce: {}", found.trace);
}

#[test]
fn commit_mutant_caught_and_reproducible() {
    let cfg = ExploreConfig { stop_at_first: true, ..ExploreConfig::default() };
    let report = explore(&Scenario::kvs_commit_mutant(), &cfg);
    let found = report.violations.first().expect("push double-apply mutant must be caught");
    let out = replay_trace(&found.trace).expect("trace is feasible");
    assert!(out.violation.is_some(), "minimal trace did not reproduce: {}", found.trace);
}

#[test]
fn barrier_scenario_small_exploration_is_clean() {
    let cfg = ExploreConfig { max_schedules: 1_500, ..ExploreConfig::default() };
    let report = explore(&Scenario::barrier(), &cfg);
    for v in &report.violations {
        eprintln!("violation: {}\n  replay with: FLUX_MC_TRACE='{}'", v.violation, v.trace);
    }
    assert!(report.violations.is_empty(), "barrier tree violated an invariant");
    // The two-barrier space exhausts below the budget under these
    // bounds; what matters is that it was fully swept and stayed clean.
    assert!(report.stats.schedules > 50, "swept only {}", report.stats.schedules);
}

/// The sharded cross-shard fence: every explored interleaving of fence
/// contribution relay, cross-shard part push, and setroot propagation
/// must release one agreed frontier covering both contributed shards —
/// the extended history oracle and the post-fence read check both gate
/// each schedule.
#[test]
fn shard_fence_scenario_exploration_is_clean() {
    let cfg = ExploreConfig { max_schedules: 4_000, ..ExploreConfig::default() };
    let report = explore(&Scenario::kvs_shard_fence(), &cfg);
    for v in &report.violations {
        eprintln!("violation: {}\n  replay with: FLUX_MC_TRACE='{}'", v.violation, v.trace);
    }
    assert!(report.violations.is_empty(), "sharded fence tree violated an invariant");
    assert!(report.stats.schedules > 50, "swept only {}", report.stats.schedules);
}

/// Watch registration racing a cross-shard commit: the watcher's
/// re-check is keyed to the owning shard's root switch and its
/// `WaitVersion` to the other shard's stream; no interleaving may stall
/// a script or break per-shard version monotonicity.
#[test]
fn shard_watch_scenario_exploration_is_clean() {
    let cfg = ExploreConfig { max_schedules: 4_000, ..ExploreConfig::default() };
    let report = explore(&Scenario::kvs_shard_watch(), &cfg);
    for v in &report.violations {
        eprintln!("violation: {}\n  replay with: FLUX_MC_TRACE='{}'", v.violation, v.trace);
    }
    assert!(report.violations.is_empty(), "sharded watch tree violated an invariant");
    assert!(report.stats.schedules > 50, "swept only {}", report.stats.schedules);
}

/// The debugging workflow: `FLUX_MC_TRACE='flux-mc:v1:...' cargo test
/// -p flux-mc replay_trace_from_env` re-executes exactly the schedule a
/// violation report named and fails loudly if it no longer reproduces.
#[test]
fn replay_trace_from_env() {
    let Ok(trace) = std::env::var("FLUX_MC_TRACE") else { return };
    let out = replay_trace(&trace).expect("env trace must be feasible");
    match out.violation {
        Some(v) => panic!("reproduced after {} events: {v}", out.events),
        None => eprintln!("trace ran clean over {} events", out.events),
    }
}
