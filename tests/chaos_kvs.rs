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
                    .map(|fi| o.replies[fi].value())
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
/// swallowed. Every script must finish, and whatever was answered must
/// satisfy the history oracle. (Past the CI window some seeds still
/// stall on a fence, whose release event has no repair yet; the
/// `chaos_history` sweep keeps the list.)
#[test]
fn sim_shard_master_blackout_during_commit() {
    let shards = 4u32;
    let cfg = flux_kvs::KvsConfig { shards, ..flux_kvs::KvsConfig::default() };
    for seed in chaos::seeds(32) {
        let w = chaos::shard_workload(seed, shards, 100_000_000, true);
        let report = chaos::run_sim_kvs(&w, cfg);
        let stalls: Vec<String> =
            chaos::stalls(&w, &report).iter().map(ToString::to_string).collect();
        assert!(
            stalls.is_empty(),
            "seed {seed}: scripts left unfinished; repro with `FLUX_CHAOS_SEED={seed} cargo test \
             -p flux-bench --test chaos_kvs`\nplan: {}\nstalls:\n  {}",
            w.plan,
            stalls.join("\n  ")
        );
        let violations = chaos::check_run(&w, &report);
        assert!(violations.is_empty(), "seed {seed}: {}\nplan: {}", violations.join("\n  "), w.plan);
    }
}

/// A one-shard commit whose interior broker is blacked out after it
/// forwarded the push: the master's answer dies there. The committer
/// sends the push again, under its own id, to the parent the healed
/// tree gives it (the master), which knows the id and answers with the
/// version the push made. The interior broker holds no copy to re-send.
/// The commit is answered, and it is applied once.
#[test]
fn sim_relay_blackout_after_forwarding_a_push() {
    use flux_rt::faults::{Blackout, FaultPlan};
    use flux_rt::script::Op;
    use flux_rt::transport::SimTransport;
    use flux_value::Value;
    use flux_wire::Rank;
    const MS: u64 = 1_000_000;
    // Ranks 3 and 4 hang below rank 1 at arity 2. The master holds the
    // push in a 1 ms batch window, so at 0.1 ms after the commit the
    // push has left rank 1 and its answer has not come back.
    let cfg = flux_kvs::KvsConfig { batch_window_ns: MS, ..flux_kvs::KvsConfig::default() };
    let start = 200 * MS;
    let mut plan = FaultPlan::new(1);
    let (from_ns, until_ns) = (start + MS / 10, start + 1_000 * MS);
    plan.blackouts.push(Blackout { rank: Rank(1), from_ns, until_ns });
    let ops = vec![
        Op::Pause(start),
        Op::GetVersion,
        Op::Put { key: "a".into(), val: Value::from(1i64) },
        Op::Commit,
        Op::Pause(1_500 * MS),
        Op::Get { key: "a".into() },
        Op::GetVersion,
    ];
    let transport = SimTransport {
        faults: Some(plan),
        deadline_ns: Some(4_000 * MS),
        ..SimTransport::default()
    };
    let report = transport.run_scripts(
        7,
        2,
        &|_| flux_modules::standard_modules_with_kvs(cfg),
        vec![(Rank(3), ops)],
    );
    let outcome = &report.outcomes[0];
    assert!(outcome.finished, "the commit was never answered: {outcome:?}");
    assert!(outcome.op_err.iter().all(|&e| e == 0), "{outcome:?}");
    let version = |op: usize| outcome.replies[op].get("version").and_then(Value::as_uint);
    let before = version(1).expect("a version");
    let commit = flux_kvs::msg::decode_cut(&outcome.replies[3]);
    let made: Vec<u64> = commit.roots.iter().map(|r| r.version).collect();
    assert_eq!(made, [before + 1], "the commit made one version");
    assert_eq!(outcome.replies[5].get("v"), Some(&Value::from(1i64)));
    assert_eq!(version(6), Some(before + 1), "and the relay's copy did not make another");
}

/// The live runtime under the same seeded fault plans: drops, dups,
/// delays, and blackouts ride real loopback sockets through the
/// nonblocking state machines, and every observed client history must
/// still satisfy the consistency oracle. Liveness is judged as the
/// simulator sweeps judge it: no script may stall on an op other than a
/// fence, whose release has no repair yet. An op may take ten heartbeat
/// periods: a lost request goes out again within two.
#[test]
fn reactor_tcp_chaos_consistency_sweep() {
    let op_timeout = Duration::from_nanos(10 * chaos::HB_PERIOD_NS);
    let mut fence_stalls = 0;
    for seed in chaos::seeds(32) {
        let w = chaos::workload(seed, 2_000_000, false);
        let transport =
            LiveTransport::default().with_faults(w.plan.clone()).with_op_timeout(op_timeout);
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
        let stalls = chaos::stalls(&w, &report);
        let other: Vec<String> = stalls
            .iter()
            .filter(|s| !matches!(s.op, flux_rt::script::Op::Fence { .. }))
            .map(ToString::to_string)
            .collect();
        assert!(
            other.is_empty(),
            "seed {seed} stalled on tcp on an op other than a fence; repro with \
             `FLUX_CHAOS_SEED={seed} cargo test -p flux-bench --test chaos_kvs`\n\
             plan: {}\nstalls:\n  {}",
            w.plan,
            other.join("\n  ")
        );
        fence_stalls += stalls.len();
    }
    println!("tcp: {fence_stalls} scripts stalled on a fence");
}
