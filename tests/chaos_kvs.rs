//! Chaos KVS workloads across runtimes.
//!
//! * The simulator is fully deterministic: the same (workload, fault
//!   plan) pair must produce bit-identical reports run-to-run.
//! * The live (TCP) runtime runs the same seeded workloads under the
//!   same fault plans via `LiveTransport::with_faults`; wall-clock timing
//!   varies, but every observed history must still satisfy the
//!   consistency checker.
//!
//! Reproduce any failing seed with:
//!
//! ```text
//! FLUX_CHAOS_SEED=<seed> cargo test -p flux-bench --test chaos_kvs
//! ```

use flux_modules::standard_modules;
use flux_rt::chaos;
use flux_rt::transport::{LiveTransport, ScriptTransport};
use std::time::Duration;

/// Identical (workload, plan) → identical simulator results, including
/// makespan, event count, and every recorded reply.
#[test]
fn sim_chaos_runs_are_deterministic() {
    for &(seed, with_kill) in &[(1u64, false), (7, true), (13, false), (19, true), (28, false)] {
        let w = chaos::workload(seed, 100_000_000, with_kill);
        let a = chaos::run_sim(&w);
        let b = chaos::run_sim(&w);
        assert_eq!(
            a, b,
            "seed {seed} (with_kill={with_kill}) diverged between identical runs; \
             plan: {}",
            w.plan
        );
    }
}

/// A shard master blacked out while a cross-shard fence is in flight:
/// the fence must either complete once the master restarts (the root
/// coordinator re-sends unacknowledged parts every heartbeat) or stay
/// pending — it must never release with a missing shard contribution,
/// and all released clients must observe one agreed frontier. The
/// extended history oracle rejects both failure modes; the run itself
/// must be byte-deterministic.
#[test]
fn sim_shard_master_blackout_during_fence() {
    let shards = 4u32;
    let cfg = flux_kvs::KvsConfig { shards, ..flux_kvs::KvsConfig::default() };
    for seed in chaos::seeds(32) {
        let w = chaos::shard_workload(seed, shards, 100_000_000, true);
        let report = chaos::run_sim_kvs(&w, cfg);
        let violations = chaos::check_run(&w, &report);
        assert!(
            violations.is_empty(),
            "seed {seed}: shard-master blackout broke the fence oracle; repro with \
             `FLUX_CHAOS_SEED={seed} cargo test -p flux-bench --test chaos_kvs`\n\
             plan: {}\nviolations:\n  {}",
            w.plan,
            violations.join("\n  ")
        );
        // Any two clients whose fence released must have received the
        // byte-identical frontier reply.
        let fence_replies: Vec<&flux_value::Value> = w
            .scripts
            .iter()
            .zip(&report.outcomes)
            .filter_map(|((_, ops), o)| {
                ops.iter().position(|op| matches!(op, flux_rt::script::Op::Fence { .. }))
                    .filter(|&fi| fi < o.op_err.len() && o.op_err[fi] == 0)
                    .map(|fi| &o.replies[fi])
            })
            .collect();
        for pair in fence_replies.windows(2) {
            assert_eq!(pair[0], pair[1], "seed {seed}: fence replies diverged");
        }
        if seed < 4 {
            let again = chaos::run_sim_kvs(&w, cfg);
            assert_eq!(report, again, "seed {seed}: sharded blackout run nondeterministic");
        }
    }
}

/// A shard master blacked out while commits are in flight. A commit is
/// coordinated on the committer's own broker — here always a slave rank,
/// never the tree root — which sends each part rank-addressed to its
/// master and must re-send, from there, the parts the blackout
/// swallowed. A script may end early on a fence or a read whose tree
/// path crossed the victim while it was down; it must never end on a
/// commit, and whatever was answered must satisfy the history oracle.
#[test]
fn sim_shard_master_blackout_during_commit() {
    let shards = 4u32;
    let cfg = flux_kvs::KvsConfig { shards, ..flux_kvs::KvsConfig::default() };
    for seed in chaos::seeds(32) {
        let w = chaos::shard_workload(seed, shards, 100_000_000, true);
        let report = chaos::run_sim_kvs(&w, cfg);
        for ((rank, ops), outcome) in w.scripts.iter().zip(&report.outcomes) {
            let stalled_on = (!outcome.finished).then(|| &ops[outcome.op_err.len()]);
            assert!(
                !matches!(stalled_on, Some(flux_rt::script::Op::Commit)),
                "seed {seed}: the commit at op {} of the script on {rank:?} was never answered; \
                 repro with `FLUX_CHAOS_SEED={seed} cargo test -p flux-bench --test chaos_kvs`\n\
                 plan: {}",
                outcome.op_err.len(),
                w.plan
            );
        }
        let violations = chaos::check_run(&w, &report);
        assert!(violations.is_empty(), "seed {seed}: {}\nplan: {}", violations.join("\n  "), w.plan);
    }
}

/// The live runtime under the same seeded fault plans: drops, dups,
/// delays, and blackouts ride real loopback sockets through the
/// nonblocking state machines, and every observed client history must
/// still satisfy the consistency oracle.
#[test]
fn reactor_tcp_chaos_consistency_sweep() {
    for seed in chaos::seeds(32) {
        let w = chaos::workload(seed, 2_000_000, false);
        let transport = LiveTransport::default()
            .with_faults(w.plan.clone())
            .with_op_timeout(Duration::from_millis(200));
        let report =
            transport.run_scripts(w.size, w.arity, &|_| standard_modules(), w.scripts.clone());
        let violations = chaos::check_run(&w, &report);
        assert!(
            violations.is_empty(),
            "seed {seed} violated consistency on tcp; repro with \
             `FLUX_CHAOS_SEED={seed} cargo test -p flux-bench --test chaos_kvs`\n\
             plan: {}\nviolations:\n  {}",
            w.plan,
            violations.join("\n  ")
        );
    }
}
