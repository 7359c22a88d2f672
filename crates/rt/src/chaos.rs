//! Seeded chaos workloads: random KVS traffic under random fault plans.
//!
//! One `u64` seed reproducibly determines a whole experiment — session
//! size, client placement, the op script each client runs, and the
//! [`FaultPlan`] applied to the links. The chaos test suites sweep seeds
//! and check the resulting observations with
//! [`flux_kvs::history::check`]; a failing seed is a complete repro
//! recipe on its own.
//!
//! Fault-style notes (why the generator is shaped the way it is):
//!
//! * **Drops and blackouts** delay requests: there is no retransmit
//!   layer, but the KVS sends its own requests again on the heartbeat,
//!   and [`stalls`] holds a run to finishing every script. A script
//!   that stalls anyway (a fence whose release event was dropped)
//!   records only a prefix of its ops — the history mapping treats an
//!   unanswered commit as [`Event::StagedOnly`] (it may or may not have
//!   applied).
//! * **Duplicates** are safe end-to-end: the broker event plane dedups
//!   by sequence number, `kvs.push` and fence batches dedup by id, and
//!   a script's `ClientCore` classifies a second copy of a reply as
//!   `Unmatched`, which the script skips.
//! * **Fences** require every participant to arrive, so the generator
//!   only emits fence rounds for loss-free styles; a single dropped
//!   contribution would otherwise stall all clients.

use crate::faults::FaultPlan;
use crate::script::Op;
use crate::transport::{ScriptOutcome, ScriptReport, ScriptTransport, SimTransport};
use flux_sim::rng::Rng;
use flux_kvs::msg;
use flux_kvs::history::{ClientHistory, Event};
use flux_kvs::shard::{key_on_shard, shard_of_key};
use flux_value::Value;
use flux_wire::{errnum, Rank};
use std::collections::BTreeMap;

/// The heartbeat period the chaos generator assumes when converting
/// epoch windows to nanoseconds (`BrokerConfig` default).
pub const HB_PERIOD_NS: u64 = 100_000_000;

/// The seeds a seeded sweep runs: the one named by `FLUX_CHAOS_SEED`
/// (the repro line every sweep assertion prints), else `0..n` for
/// `n` = `FLUX_CHAOS_SEEDS` (CI pins it), else `0..default_count`.
pub fn seeds(default_count: u64) -> Vec<u64> {
    if let Ok(one) = std::env::var("FLUX_CHAOS_SEED") {
        #[expect(
            clippy::expect_used,
            reason = "a malformed repro seed must fail the sweep loudly rather than \
                      silently run some other seed"
        )]
        return vec![one.parse().expect("FLUX_CHAOS_SEED must be a u64")];
    }
    let n = std::env::var("FLUX_CHAOS_SEEDS").ok().and_then(|v| v.parse().ok());
    (0..n.unwrap_or(default_count)).collect()
}

/// A fully-determined chaos experiment.
#[derive(Debug, Clone)]
pub struct ChaosWorkload {
    /// The seed that produced everything below.
    pub seed: u64,
    /// Session size in brokers.
    pub size: u32,
    /// Tree arity.
    pub arity: u32,
    /// Per-client op scripts, `(rank, ops)`.
    pub scripts: Vec<(Rank, Vec<Op>)>,
    /// The fault plan to apply to the session links.
    pub plan: FaultPlan,
    /// Virtual-time deadline for simulator runs (heartbeats never let
    /// the event heap drain on its own).
    pub deadline_ns: u64,
}

/// Generates the experiment for `seed`.
///
/// `time_scale_ns` sets the magnitude of pauses and injected delays
/// (use ~100ms on the simulator where time is free, a few ms on live
/// transports). `with_kill` additionally blacks out one non-client,
/// non-root broker for a few heartbeat epochs mid-run.
pub fn workload(seed: u64, time_scale_ns: u64, with_kill: bool) -> ChaosWorkload {
    let scale = time_scale_ns.max(2);
    let mut rng = Rng::seeded(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(0xc4a5));
    let size: u32 = rng.gen_range(5u32..=12);
    let arity: u32 = rng.gen_range(2u32..=3);
    // Leave root (the KVS master) and at least one other rank client-free
    // so a kill never silences a scripted client's own broker.
    let nclients = (rng.gen_range(3u32..=6) as usize).min(size as usize - 2);
    let mut ranks: Vec<u32> = (1..size).collect();
    for i in (1..ranks.len()).rev() {
        let j = rng.gen_range(0usize..=i);
        ranks.swap(i, j);
    }
    let client_ranks: Vec<u32> = ranks[..nclients].to_vec();

    // Fault style first: the workload shape depends on it (fences only
    // when nothing is dropped).
    let style: u32 = rng.gen_range(0u32..4);
    let mut plan = FaultPlan::new(seed);
    let lossless = match style {
        0 => {
            plan = plan.delay(0.02, scale);
            true
        }
        1 => {
            plan = plan.drop(f64::from(rng.gen_range(1u32..=20)) / 1000.0);
            false
        }
        2 => {
            plan = plan.duplicate(0.02).delay(0.05, scale * 2);
            true
        }
        _ => {
            plan = plan.drop(0.005).duplicate(0.01).delay(0.02, scale);
            false
        }
    };
    let mut window_end_ns = 0u64;
    if with_kill {
        #[expect(
            clippy::expect_used,
            reason = "test-harness scenario generator; the caller guarantees size > \
                      nclients, and a bad plan should fail the chaos suite loudly"
        )]
        let victim = *ranks[nclients..]
            .iter()
            .min()
            .expect("nclients leaves a spare rank");
        let from = u64::from(rng.gen_range(2u32..=4));
        let until = from + u64::from(rng.gen_range(3u32..=5));
        plan = plan.kill_epochs(Rank(victim), from..until, HB_PERIOD_NS);
        window_end_ns = until * HB_PERIOD_NS;
    } else if rng.gen_range(0u32..4) == 0 {
        // Occasionally partition a small group away for a window.
        let group: Vec<Rank> = ranks[nclients..]
            .iter()
            .take(2)
            .map(|&r| Rank(r))
            .collect();
        if !group.is_empty() {
            let from = u64::from(rng.gen_range(2u32..=4)) * HB_PERIOD_NS;
            let until = from + u64::from(rng.gen_range(2u32..=4)) * HB_PERIOD_NS;
            window_end_ns = until;
            plan = plan.partition(group, from..until);
        }
    }

    let mut scripts = Vec::with_capacity(nclients);
    let mut max_pause_sum = 0u64;
    let fence_round = lossless && rng.gen_range(0u32..10) < 3;
    for (ci, &crank) in client_ranks.iter().enumerate().take(nclients) {
        let own = format!("chaos.c{ci}");
        let other = format!("chaos.c{}", rng.gen_range(0usize..nclients));
        let rounds: u64 = rng.gen_range(3u64..=8);
        let mut ops = Vec::new();
        let mut pause_sum = 0u64;
        if rng.gen_range(0u32..2) == 0 {
            ops.push(Op::Get { key: own.clone() }); // pre-write read: absent
        }
        for gen in 1..=rounds {
            if rng.gen_range(0u32..100) < 60 {
                let ns = rng.gen_range(scale / 2..=scale * 2);
                pause_sum += ns;
                ops.push(Op::Pause(ns));
            }
            ops.push(Op::Put { key: own.clone(), val: Value::from(gen as i64) });
            ops.push(Op::Commit);
            match rng.gen_range(0u32..4) {
                0 => ops.push(Op::Get { key: own.clone() }),
                1 => ops.push(Op::Get { key: other.clone() }),
                2 => ops.push(Op::GetVersion),
                _ => {
                    ops.push(Op::Get { key: own.clone() });
                    ops.push(Op::GetVersion);
                }
            }
        }
        if fence_round {
            ops.push(Op::Fence { name: format!("chaos.f{seed:x}"), nprocs: nclients as u64 });
            ops.push(Op::Get { key: other });
        }
        max_pause_sum = max_pause_sum.max(pause_sum);
        scripts.push((Rank(crank), ops));
    }

    // Generous virtual-time budget: all pauses, the fault windows, plus
    // worst-case injected delay for every op (each op crosses several
    // links, any of which may be held back by up to `max_delay_ns`).
    // Virtual time is free, so over-budgeting only costs heartbeats.
    let max_ops = scripts.iter().map(|(_, ops)| ops.len() as u64).max().unwrap_or(0);
    let deadline_ns = 2 * max_pause_sum
        + window_end_ns
        + 20 * HB_PERIOD_NS
        + max_ops * plan.max_delay_ns.saturating_mul(4);
    ChaosWorkload { seed, size, arity, scripts, plan, deadline_ns }
}

/// Generates a **sharded** chaos experiment: shard masters on ranks
/// `0..shards`, scripted clients on slave ranks only, keys placed
/// across shards with [`key_on_shard`], and every run ending in a
/// cross-shard fence. With `kill_master`, one shard master (never rank
/// 0, the root coordinator) is blacked out for a few heartbeat epochs
/// mid-run — commits and the fence caught in the window must complete
/// after the restart via the coordinator's retry loop, or stay pending;
/// the history checker rejects any partial release.
///
/// Run it with a `KvsConfig` whose `shards` matches, e.g.
/// `run_sim_kvs(&w, KvsConfig { shards, ..KvsConfig::default() })`.
pub fn shard_workload(seed: u64, shards: u32, time_scale_ns: u64, kill_master: bool) -> ChaosWorkload {
    let scale = time_scale_ns.max(2);
    let shards = shards.max(2);
    let mut rng = Rng::seeded(
        seed.wrapping_mul(0x2545_f491_4f6c_dd1d)
            .wrapping_add(0x9e37u64.wrapping_add(u64::from(shards))),
    );
    let size: u32 = shards + rng.gen_range(3u32..=6);
    let arity: u32 = rng.gen_range(2u32..=3);
    // Clients live strictly on slave ranks (>= shards): a master kill
    // never silences a scripted client's own broker.
    let slave_ranks: Vec<u32> = (shards..size).collect();
    let nclients = (rng.gen_range(2u32..=4) as usize).min(slave_ranks.len());
    let client_ranks: Vec<u32> = slave_ranks[..nclients].to_vec();

    // Lossless fault base (delays, sometimes duplicates): the sweep
    // isolates the blackout as the only source of message loss, so
    // stalled scripts always indict the retry machinery.
    let mut plan = FaultPlan::new(seed);
    plan = if rng.gen_range(0u32..2) == 0 {
        plan.delay(0.05, scale)
    } else {
        plan.duplicate(0.02).delay(0.03, scale)
    };
    let mut window_end_ns = 0u64;
    if kill_master {
        // Victim: a shard master, never the root coordinator.
        let victim = rng.gen_range(1u32..shards);
        let from = u64::from(rng.gen_range(2u32..=4));
        let until = from + u64::from(rng.gen_range(3u32..=5));
        plan = plan.kill_epochs(Rank(victim), from..until, HB_PERIOD_NS);
        window_end_ns = until * HB_PERIOD_NS;
    }

    let mut scripts = Vec::with_capacity(nclients);
    let mut max_pause_sum = 0u64;
    for (ci, &crank) in client_ranks.iter().enumerate() {
        // Two keys per client on distinct shards, so every commit and
        // the fence span shard boundaries.
        let sa = ci as u32 % shards;
        let sb = (ci as u32 + 1) % shards;
        let key_a = key_on_shard(&format!("chaos.s.c{ci}a"), sa, shards);
        let key_b = key_on_shard(&format!("chaos.s.c{ci}b"), sb, shards);
        let rounds: u64 = rng.gen_range(2u64..=5);
        let mut ops = Vec::new();
        let mut pause_sum = 0u64;
        if rng.gen_range(0u32..2) == 0 {
            ops.push(Op::Get { key: key_a.clone() });
        }
        for gen in 1..=rounds {
            if rng.gen_range(0u32..100) < 60 {
                let ns = rng.gen_range(scale / 2..=scale * 2);
                pause_sum += ns;
                ops.push(Op::Pause(ns));
            }
            ops.push(Op::Put { key: key_a.clone(), val: Value::from(gen as i64) });
            ops.push(Op::Put { key: key_b.clone(), val: Value::from(gen as i64) });
            ops.push(Op::Commit);
            match rng.gen_range(0u32..3) {
                0 => ops.push(Op::Get { key: key_a.clone() }),
                1 => ops.push(Op::Get { key: key_b.clone() }),
                _ => ops.push(Op::GetVersion),
            }
        }
        // The cross-shard fence every run converges on; reads after it
        // must observe every client's fenced contribution.
        ops.push(Op::Put { key: key_a.clone(), val: Value::from((rounds + 1) as i64) });
        ops.push(Op::Put { key: key_b.clone(), val: Value::from((rounds + 1) as i64) });
        ops.push(Op::Fence { name: format!("chaos.sf{seed:x}"), nprocs: nclients as u64 });
        ops.push(Op::Get { key: key_a });
        ops.push(Op::Get { key: key_b });
        max_pause_sum = max_pause_sum.max(pause_sum);
        scripts.push((Rank(crank), ops));
    }

    // Budget like `workload`, plus slack for blackout-window retries
    // (the coordinator re-sends once per heartbeat epoch).
    let max_ops = scripts.iter().map(|(_, ops)| ops.len() as u64).max().unwrap_or(0);
    let deadline_ns = 2 * max_pause_sum
        + window_end_ns
        + 40 * HB_PERIOD_NS
        + max_ops * plan.max_delay_ns.saturating_mul(4);
    ChaosWorkload { seed, size, arity, scripts, plan, deadline_ns }
}

/// Runs the workload on the discrete-event simulator with the standard
/// module set, faults wired natively into the engine.
pub fn run_sim(w: &ChaosWorkload) -> ScriptReport {
    run_sim_kvs(w, flux_kvs::KvsConfig::default())
}

/// Runs the workload like [`run_sim`] but with an explicit KVS
/// configuration on every broker — the sweep slice that pits the
/// commit-batching window against drops, duplicates, and blackout
/// windows.
pub fn run_sim_kvs(w: &ChaosWorkload, kvs: flux_kvs::KvsConfig) -> ScriptReport {
    let transport = SimTransport {
        faults: Some(w.plan.clone()),
        deadline_ns: Some(w.deadline_ns),
        ..SimTransport::default()
    };
    transport.run_scripts(
        w.size,
        w.arity,
        &move |_| flux_modules::standard_modules_with_kvs(kvs),
        w.scripts.clone(),
    )
}

/// Maps a run's per-op results back onto consistency-checker events.
///
/// Only the recorded prefix of each script is used: a stalled or
/// timed-out op ends the walk (the live driver abandons the script, the
/// simulator records nothing further). The commit reached when the
/// record ends is conservative — every put staged since the previous
/// commit becomes [`Event::StagedOnly`].
fn histories(w: &ChaosWorkload, report: &ScriptReport) -> Vec<ClientHistory> {
    histories_for(&w.scripts, &report.outcomes)
}

/// The script-to-history mapping behind [`check_run`], usable by any
/// driver that ran `scripts` and recorded `outcomes` in the same order
/// (the chaos suites and the flux-mc model checker share it).
pub fn histories_for(
    scripts: &[(Rank, Vec<Op>)],
    outcomes: &[ScriptOutcome],
) -> Vec<ClientHistory> {
    let mut out = Vec::with_capacity(scripts.len());
    for (si, (rank, ops)) in scripts.iter().enumerate() {
        let outcome = &outcomes[si];
        let mut events = Vec::new();
        let mut staged: Vec<(String, u64)> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            let recorded = i < outcome.op_err.len();
            match op {
                Op::Put { key, val } if recorded && outcome.op_err[i] == 0 => {
                    let gen = val.as_uint().unwrap_or(0);
                    staged.push((key.clone(), gen));
                }
                Op::Commit => {
                    let ok = recorded && outcome.op_err[i] == 0;
                    let acked = ok.then(|| acked(&outcome.replies[i]));
                    for (key, gen) in staged.drain(..) {
                        // The key committed on its shard at that shard's
                        // frontier version.
                        let at = acked.as_ref().and_then(|a| {
                            let shard = shard_of_key(&key, a.shards).ok()?;
                            a.versions.get(&shard).map(|&version| (shard, version))
                        });
                        events.push(match at {
                            Some((shard, version)) => Event::Committed { key, gen, shard, version },
                            None => Event::StagedOnly { key, gen },
                        });
                    }
                    for (&shard, &v) in acked.iter().flat_map(|a| &a.versions) {
                        events.push(Event::Version { shard, v });
                    }
                }
                Op::Get { key } => {
                    if !recorded {
                        break;
                    }
                    match outcome.op_err[i] {
                        0 => {
                            let gen = msg::value(&outcome.replies[i]).and_then(Value::as_uint);
                            events.push(Event::Read { key: key.clone(), gen });
                        }
                        e if e == errnum::ENOENT => {
                            events.push(Event::Read { key: key.clone(), gen: None });
                        }
                        _ => break,
                    }
                }
                Op::GetVersion if recorded && outcome.op_err[i] == 0 => {
                    let at = msg::decode_root(&outcome.replies[i]);
                    events.push(Event::Version { shard: at.shard, v: at.version });
                }
                Op::Fence { name, .. } => {
                    // A successful fence commits the caller's staged
                    // write-back set (its contribution applied at the
                    // master before the completion event); an unanswered
                    // fence leaves its fate unknown. A rejected fence
                    // (EINVAL) never consumed the set — it stays staged
                    // for a later commit.
                    if !recorded {
                        for (key, gen) in staged.drain(..) {
                            events.push(Event::StagedOnly { key, gen });
                        }
                    } else if outcome.op_err[i] == 0 {
                        // The release names the cut every contribution
                        // landed in: each is fenced on its owning shard,
                        // and the frontier must agree across all clients.
                        let Acked { shards, versions } = acked(&outcome.replies[i]);
                        for (key, gen) in staged.drain(..) {
                            let shard = shard_of_key(&key, shards).unwrap_or(0);
                            events.push(Event::Fenced { name: name.clone(), key, gen, shard });
                        }
                        let frontier = versions.into_iter().collect();
                        events.push(Event::FenceDone { name: name.clone(), frontier });
                    }
                }
                _ => {}
            }
            if !recorded {
                break;
            }
        }
        // An unanswered tail commit was drained above only if the Commit
        // op itself was reached in the loop; puts still staged when the
        // record ends have unknown fate only if a commit follows in the
        // script — but an unreached commit was never sent, so those
        // writes were never published and are rightly omitted.
        out.push(ClientHistory { client: format!("r{}c{si}", rank.0), events });
    }
    out
}

/// What a successful commit or fence reply acknowledges: the session's
/// shard count and the version each shard it touched reached.
struct Acked {
    shards: u32,
    versions: BTreeMap<u32, u64>,
}

/// Decodes a reply through the KVS codec, the one owner of its shapes.
fn acked(reply: &Value) -> Acked {
    let cut = msg::decode_cut(reply);
    Acked { shards: cut.shards, versions: cut.roots.iter().map(|r| (r.shard, r.version)).collect() }
}

/// Convenience: run the mapping and the checker in one step.
pub fn check_run(w: &ChaosWorkload, report: &ScriptReport) -> Vec<String> {
    flux_kvs::history::check(&histories(w, report))
}

/// A script that had not finished when its run ended.
#[derive(Debug, Clone)]
pub struct Stall {
    /// Its index in the workload's scripts.
    pub script: usize,
    /// The rank it ran on.
    pub rank: Rank,
    /// The index of the op it stopped on.
    pub at: usize,
    /// That op: the one whose answer never came.
    pub op: Op,
}

impl std::fmt::Display for Stall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Stall { script, rank, at, op } = self;
        write!(f, "script {script} on rank {} stopped at op {at}: {op:?}", rank.0)
    }
}

/// The liveness verdict of a simulator run, beside [`check_run`]'s
/// safety verdict: every script unfinished at the workload's deadline
/// ([`ChaosWorkload::deadline_ns`], past every pause and fault window),
/// with the op it stopped on. A fault that heals leaves no request
/// hanging, so the list is empty. On a live transport a stall is the
/// script its driver abandoned.
pub fn stalls(w: &ChaosWorkload, report: &ScriptReport) -> Vec<Stall> {
    w.scripts
        .iter()
        .zip(&report.outcomes)
        .enumerate()
        .filter(|(_, (_, o))| !o.finished)
        .map(|(script, ((rank, ops), o))| {
            // The simulator records nothing past the op that hung; a
            // live driver records the op it gave up on as `ETIMEDOUT`.
            let at = match o.op_err.last() {
                Some(&errnum::ETIMEDOUT) => o.op_err.len() - 1,
                _ => o.op_err.len(),
            };
            Stall { script, rank: *rank, at, op: ops[at].clone() }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ScriptOutcome;
    use flux_wire::Payload;

    #[test]
    fn workload_is_deterministic() {
        let a = workload(42, 1_000_000, true);
        let b = workload(42, 1_000_000, true);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn seeds_vary_the_experiment() {
        let shapes: Vec<String> = (0..8u64)
            .map(|s| {
                let w = workload(s, 1_000_000, false);
                format!("{}/{}/{}", w.size, w.arity, w.scripts.len())
            })
            .collect();
        let first = &shapes[0];
        assert!(shapes.iter().any(|s| s != first), "shapes: {shapes:?}");
    }

    #[test]
    fn kill_workloads_never_kill_a_client_rank() {
        for seed in 0..32u64 {
            let w = workload(seed, 1_000_000, true);
            for b in &w.plan.blackouts {
                assert!(!b.rank.is_root(), "seed {seed} kills root");
                assert!(
                    w.scripts.iter().all(|(r, _)| *r != b.rank),
                    "seed {seed} kills client rank {}",
                    b.rank.0
                );
            }
            assert!(!w.plan.blackouts.is_empty(), "seed {seed} has no kill");
        }
    }

    #[test]
    fn shard_workload_is_deterministic() {
        let a = shard_workload(42, 4, 1_000_000, true);
        let b = shard_workload(42, 4, 1_000_000, true);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn shard_workload_kills_only_non_root_masters() {
        for seed in 0..32u64 {
            let w = shard_workload(seed, 4, 1_000_000, true);
            assert!(!w.plan.blackouts.is_empty(), "seed {seed} has no kill");
            for b in &w.plan.blackouts {
                assert!(!b.rank.is_root(), "seed {seed} kills the root coordinator");
                assert!(b.rank.0 < 4, "seed {seed} kills non-master rank {}", b.rank.0);
                assert!(
                    w.scripts.iter().all(|(r, _)| *r != b.rank),
                    "seed {seed} kills client rank {}",
                    b.rank.0
                );
            }
            // Every script spans shards and ends in fence + reads.
            for (rank, ops) in &w.scripts {
                assert!(rank.0 >= 4, "client on a master rank");
                assert!(ops.iter().any(|o| matches!(o, Op::Fence { .. })));
            }
        }
    }

    #[test]
    fn histories_map_frontier_replies() {
        let shards = 4u32;
        let key_a = key_on_shard("fm.a", 1, shards);
        let key_b = key_on_shard("fm.b", 2, shards);
        let w = ChaosWorkload {
            seed: 0,
            size: 6,
            arity: 2,
            scripts: vec![(
                Rank(4),
                vec![
                    Op::Put { key: key_a.clone(), val: Value::from(1i64) },
                    Op::Put { key: key_b.clone(), val: Value::from(1i64) },
                    Op::Commit,
                    Op::Put { key: key_a.clone(), val: Value::from(2i64) },
                    Op::Fence { name: "fm.f".into(), nprocs: 1 },
                ],
            )],
            plan: FaultPlan::new(0),
            deadline_ns: 0,
        };
        let frontier = |v1: i64, v2: i64| {
            Value::from_pairs([
                ("shards", Value::from(shards as i64)),
                (
                    "frontier",
                    Value::Array(vec![
                        Value::from_pairs([
                            ("shard", Value::from(1i64)),
                            ("version", Value::from(v1)),
                            ("root", Value::from("aa")),
                        ]),
                        Value::from_pairs([
                            ("shard", Value::from(2i64)),
                            ("version", Value::from(v2)),
                            ("root", Value::from("bb")),
                        ]),
                    ]),
                ),
            ])
        };
        let report = ScriptReport {
            outcomes: vec![ScriptOutcome {
                op_done_ns: vec![1, 2, 3, 4, 5],
                op_err: vec![0, 0, 0, 0, 0],
                replies: [Value::Null, Value::Null, frontier(3, 5), Value::Null, frontier(4, 5)]
                    .map(Payload::from)
                    .into(),
                finished: true,
            }],
            ..ScriptReport::default()
        };
        let h = histories(&w, &report);
        assert_eq!(
            h[0].events,
            vec![
                Event::Committed { key: key_a.clone(), gen: 1, shard: 1, version: 3 },
                Event::Committed { key: key_b.clone(), gen: 1, shard: 2, version: 5 },
                Event::Version { shard: 1, v: 3 },
                Event::Version { shard: 2, v: 5 },
                Event::Fenced { name: "fm.f".into(), key: key_a, gen: 2, shard: 1 },
                Event::FenceDone { name: "fm.f".into(), frontier: vec![(1, 4), (2, 5)] },
            ]
        );
        assert!(check_run(&w, &report).is_empty());
    }

    #[test]
    fn histories_map_commits_and_reads() {
        let w = ChaosWorkload {
            seed: 0,
            size: 3,
            arity: 2,
            scripts: vec![(
                Rank(1),
                vec![
                    Op::Put { key: "k".into(), val: Value::from(1i64) },
                    Op::Commit,
                    Op::Get { key: "k".into() },
                    Op::Put { key: "k".into(), val: Value::from(2i64) },
                    Op::Commit, // unanswered → StagedOnly
                ],
            )],
            plan: FaultPlan::new(0),
            deadline_ns: 0,
        };
        let report = ScriptReport {
            outcomes: vec![ScriptOutcome {
                op_done_ns: vec![1, 2, 3, 4, 5],
                op_err: vec![0, 0, 0, 0, errnum::ETIMEDOUT],
                replies: [
                    Value::Null,
                    msg::cut_reply(1, &[msg::RootRef { shard: 0, version: 7, root: "aa".into() }]),
                    Value::from_pairs([("v", Value::from(1i64))]),
                    Value::Null,
                    Value::Null,
                ]
                .map(Payload::from)
                .into(),
                finished: false,
            }],
            ..ScriptReport::default()
        };
        let h = histories(&w, &report);
        assert_eq!(
            h[0].events,
            vec![
                Event::Committed { key: "k".into(), gen: 1, shard: 0, version: 7 },
                Event::Version { shard: 0, v: 7 },
                Event::Read { key: "k".into(), gen: Some(1) },
                Event::StagedOnly { key: "k".into(), gen: 2 },
            ]
        );
        assert!(check_run(&w, &report).is_empty());
    }
}
