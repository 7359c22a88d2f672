//! Every tree reduction counts a duplicated frame once.
//!
//! `barrier.up`, `kvs.fence.up`, `mon.up`, `log.batch` and
//! `wexec.status.up` all climb the tree as one-way requests, and the
//! repo's own fault model (`FaultPlan::duplicate`, the one the chaos
//! sweeps draw from) may deliver any of them twice. Each case runs a
//! small simulated session with *every* broker-to-broker frame
//! duplicated and reads the reduced total at the root. The assertion
//! messages quote what 34d36a3 — five private copies of the reduction,
//! two with a dedup of the wrong lifetime and three with none — read on
//! the same case.

use flux_broker::CommsModule;
use flux_kvs::KvsModule;
use flux_modules::{BarrierModule, HbModule, LogModule, MonModule, WexecModule};
use flux_rt::faults::FaultPlan;
use flux_rt::script::Op;
use flux_rt::transport::{ScriptOutcome, ScriptTransport, SimTransport};
use flux_value::Value;
use flux_wire::{Rank, Topic};

fn modules(_r: Rank) -> Vec<Box<dyn CommsModule>> {
    vec![
        Box::new(HbModule::new()),
        Box::new(KvsModule::new()),
        Box::new(BarrierModule::new()),
        Box::new(LogModule::new()),
        Box::new(MonModule::new()),
        Box::new(WexecModule::new()),
    ]
}

/// Runs `scripts` on a binary tree of `size` brokers under `plan`, for
/// two virtual seconds (twenty heartbeats).
fn run(size: u32, plan: FaultPlan, scripts: Vec<(Rank, Vec<Op>)>) -> Vec<ScriptOutcome> {
    let sim = SimTransport {
        faults: Some(plan),
        deadline_ns: Some(2_000_000_000),
        ..SimTransport::default()
    };
    sim.run_scripts(size, 2, &modules, scripts).outcomes
}

/// The one script of a single-script case, every op of it answered.
fn only(outcomes: Vec<ScriptOutcome>) -> ScriptOutcome {
    let [o] = <[ScriptOutcome; 1]>::try_from(outcomes).unwrap();
    assert!(o.finished && o.op_err.iter().all(|&e| e == 0), "{o:?}");
    o
}

fn request(topic: &str, payload: Value) -> Op {
    Op::Request { topic: Topic::new(topic).unwrap(), payload }
}

const MS: u64 = 1_000_000;

#[test]
fn log_entry_is_stored_once() {
    // Rank 3 is two hops below the root (0 → 1 → 3).
    let script = vec![
        request(
            "log.msg",
            Value::from_pairs([("level", Value::Int(6)), ("text", Value::from("once"))]),
        ),
        Op::Pause(500 * MS),
        request("log.query", Value::object()),
    ];
    let outcome = only(run(4, FaultPlan::new(1).duplicate(1.0), vec![(Rank(3), script)]));
    let entries = outcome.replies[2].get("entries").and_then(Value::as_array).unwrap();
    let stored = entries.iter().filter(|e| e.get("text") == Some(&Value::from("once"))).count();
    assert_eq!(stored, 1, "one log.msg, one session-log entry (34d36a3: 4, doubled per hop)");
}

#[test]
fn mon_aggregate_counts_each_broker_once() {
    let script = vec![
        request(
            "mon.add",
            Value::from_pairs([("name", Value::from("load")), ("metric", Value::from("load"))]),
        ),
        // Epoch 8 closes at the root `tree_height + 1` heartbeats later.
        Op::Pause(1500 * MS),
        Op::Get { key: "mon.data.load.e8".into() },
    ];
    let outcome = only(run(4, FaultPlan::new(1).duplicate(1.0), vec![(Rank(0), script)]));
    let agg = outcome.replies[2].get("v").unwrap();
    assert_eq!(
        agg.get("count").and_then(Value::as_uint),
        Some(4),
        "four brokers sampled epoch 8 (34d36a3: count 9, sum and avg with it): {agg:?}"
    );
}

#[test]
fn wexec_status_counts_each_task_once() {
    let script = vec![
        request(
            "wexec.run",
            Value::from_pairs([
                ("jobid", Value::Int(9)),
                ("targets", Value::from(vec![3i64])),
                ("cmd", Value::from("fail 2")),
            ]),
        ),
        Op::Pause(1000 * MS),
        Op::Get { key: "lwj.9.complete".into() },
    ];
    let outcome = only(run(4, FaultPlan::new(1).duplicate(1.0), vec![(Rank(0), script)]));
    let complete = outcome.replies[2].get("v").unwrap();
    let want = Value::from_pairs([
        ("ntasks", Value::Int(1)),
        ("failed", Value::Int(1)),
        ("max_code", Value::Int(2)),
    ]);
    assert_eq!(complete, &want, "one task failed once (34d36a3: failed 2)");
}

/// Two processes use barrier `b` twice. The copy of the batch that
/// completed round one can arrive after the root forgot round one; it
/// must not count toward round two.
#[test]
fn second_same_named_barrier_waits_for_the_late_process() {
    let enter = || Op::Barrier { name: "b".into(), nprocs: 2 };
    for seed in 0..32 {
        let plan = FaultPlan::new(seed).duplicate(1.0).delay(0.5, 2_000_000);
        let early = vec![enter(), enter()];
        let late = vec![enter(), Op::Pause(50 * MS), enter()];
        let outcomes = run(3, plan, vec![(Rank(1), early), (Rank(2), late)]);
        // Op 1 of the early script is its second barrier; op 1 of the
        // late one is the pause that ends as it enters round two.
        let (released, entered) = (outcomes[0].op_done_ns[1], outcomes[1].op_done_ns[1]);
        assert!(
            released >= entered,
            "seed {seed}: rank 1 left round two at {released} ns, before rank 2 entered it at \
             {entered} ns (34d36a3: early in 31 of 32 seeds)"
        );
        assert!(
            outcomes.iter().all(|o| o.finished),
            "seed {seed}: a process hangs in round two (34d36a3: rank 2, in 14 of 32 seeds)"
        );
    }
}
