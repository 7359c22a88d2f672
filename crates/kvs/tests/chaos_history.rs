//! Chaos consistency sweep: random KVS workloads under random fault
//! plans on the deterministic simulator, checked with the per-client
//! history checker (`flux_kvs::history`).
//!
//! Every experiment is reproducible from its seed:
//!
//! ```text
//! FLUX_CHAOS_SEED=<seed> cargo test -p flux-kvs --test chaos_history
//! ```
//!
//! `FLUX_CHAOS_SEEDS=<n>` widens the sweep (default 32 per variant).

use flux_rt::chaos;

fn sweep(with_kill: bool) {
    for seed in chaos::seeds(32) {
        let w = chaos::workload(seed, 100_000_000, with_kill);
        let report = chaos::run_sim(&w);
        let violations = chaos::check_run(&w, &report);
        assert!(
            violations.is_empty(),
            "seed {seed} (with_kill={with_kill}) violated consistency; repro with \
             `FLUX_CHAOS_SEED={seed} cargo test -p flux-kvs --test chaos_history`\n\
             plan: {}\nviolations:\n  {}",
            w.plan,
            violations.join("\n  ")
        );
        // Sanity: the sweep must actually observe traffic, or the checker
        // is vacuously satisfied.
        let recorded: usize = report.outcomes.iter().map(|o| o.op_err.len()).sum();
        assert!(
            recorded > 0,
            "seed {seed} (with_kill={with_kill}) recorded no ops at all"
        );
    }
}

#[test]
fn consistency_holds_under_random_faults() {
    sweep(false);
}

#[test]
fn consistency_holds_under_broker_kills() {
    sweep(true);
}

/// The hot-path-optimization slice: an aggressive commit-batching
/// window, swept under fault plans that include broker blackout
/// windows. A read served from a stale root after a root switch, or a
/// parked push surviving a blackout wrong, shows up as a
/// read-your-writes or monotonic-reads violation here.
#[test]
fn consistency_holds_with_aggressive_batching_under_blackouts() {
    let cfg = flux_kvs::KvsConfig {
        batch_window_ns: 200_000, // park pushes much longer than default
        batch_max: 4,
        ..flux_kvs::KvsConfig::default()
    };
    for seed in chaos::seeds(32) {
        let w = chaos::workload(seed, 100_000_000, true);
        let report = chaos::run_sim_kvs(&w, cfg);
        let violations = chaos::check_run(&w, &report);
        assert!(
            violations.is_empty(),
            "seed {seed} (batching, blackout) violated consistency; repro with \
             `FLUX_CHAOS_SEED={seed} cargo test -p flux-kvs --test chaos_history`\n\
             plan: {}\nviolations:\n  {}",
            w.plan,
            violations.join("\n  ")
        );
    }
}

/// The sharded multi-master slice: 4 shard masters, scripted clients on
/// slave ranks, commits and fences spanning shards — swept with and
/// without blacking out one shard master mid-run, and checked with the
/// extended cross-shard oracle (per-shard monotonic versions, fence
/// frontier agreement, no partial fence release).
fn sharded_sweep(kill_master: bool) {
    let shards = 4u32;
    let cfg = flux_kvs::KvsConfig { shards, ..flux_kvs::KvsConfig::default() };
    for seed in chaos::seeds(32) {
        let w = chaos::shard_workload(seed, shards, 100_000_000, kill_master);
        let report = chaos::run_sim_kvs(&w, cfg);
        let violations = chaos::check_run(&w, &report);
        assert!(
            violations.is_empty(),
            "seed {seed} (sharded, kill_master={kill_master}) violated the cross-shard \
             oracle; repro with `FLUX_CHAOS_SEED={seed} cargo test -p flux-kvs --test \
             chaos_history`\nplan: {}\nviolations:\n  {}",
            w.plan,
            violations.join("\n  ")
        );
        let recorded: usize = report.outcomes.iter().map(|o| o.op_err.len()).sum();
        assert!(recorded > 0, "seed {seed} (sharded) recorded no ops at all");
        // Without a blackout the base plan is lossless: the cross-shard
        // fence must release and every script must run to completion.
        if !kill_master {
            for (i, o) in report.outcomes.iter().enumerate() {
                assert!(
                    o.finished,
                    "seed {seed}: sharded lossless run left script {i} unfinished \
                     ({} of {} ops)",
                    o.op_err.len(),
                    w.scripts[i].1.len()
                );
            }
        }
    }
}

#[test]
fn consistency_holds_when_sharded() {
    sharded_sweep(false);
}

#[test]
fn consistency_holds_under_shard_master_kills() {
    sharded_sweep(true);
}

/// Loss-free seeds must complete every script: nothing in a dup/delay
/// plan may lose an op outright.
#[test]
fn lossless_plans_complete_all_scripts() {
    for seed in chaos::seeds(32) {
        let w = chaos::workload(seed, 100_000_000, false);
        if w.plan.drop_ppm > 0 || !w.plan.blackouts.is_empty() || !w.plan.partitions.is_empty() {
            continue;
        }
        let report = chaos::run_sim(&w);
        for (i, o) in report.outcomes.iter().enumerate() {
            assert!(
                o.finished,
                "seed {seed}: lossless plan {} left script {i} unfinished \
                 ({} of {} ops); repro with `FLUX_CHAOS_SEED={seed} cargo test -p \
                 flux-kvs --test chaos_history`",
                w.plan,
                o.op_err.len(),
                w.scripts[i].1.len()
            );
        }
    }
}
