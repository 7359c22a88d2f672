//! Simulator-specific runtime tests (virtual time, determinism,
//! kill-broker semantics). The behavioural battery shared by every
//! transport lives in `tests/conformance.rs`.

use flux_broker::CommsModule;
use flux_modules::standard_modules;
use flux_rt::script::{Op, ScriptClient};
use flux_rt::sim::SimSession;
use flux_sim::{NetParams, PendingKind, SimTime};
use flux_value::Value;
use flux_wire::Rank;

fn kvs_only(_r: Rank) -> Vec<Box<dyn CommsModule>> {
    vec![
        Box::new(flux_kvs::KvsModule::new()),
        Box::new(flux_modules::BarrierModule::new()),
    ]
}

#[test]
fn sim_put_commit_get_across_session() {
    let mut s = SimSession::new(64, 2, NetParams::default(), kvs_only);
    let writer = ScriptClient::spawn(
        &mut s,
        Rank(63),
        vec![
            Op::Put { key: "sim.x".into(), val: Value::Int(7) },
            Op::Commit,
        ],
    );
    let end = s.run_until_quiet(Some(5_000_000)).expect("no livelock");
    assert!(writer.borrow().finished);
    assert!(writer.borrow().op_err.iter().all(|&e| e == 0));
    assert!(end > SimTime::ZERO);

    // A reader at another leaf, in a second phase.
    let reader = ScriptClient::spawn(&mut s, Rank(33), vec![Op::Get { key: "sim.x".into() }]);
    s.run_until_quiet(Some(5_000_000)).expect("no livelock");
    let out = reader.borrow();
    assert!(out.finished);
    assert_eq!(out.op_err, [0]);
    assert_eq!(out.replies[0].get("v"), Some(&Value::Int(7)));
}

#[test]
fn sim_fence_synchronizes_all_writers() {
    let size = 32u32;
    let mut s = SimSession::new(size, 2, NetParams::default(), kvs_only);
    let outcomes: Vec<_> = (0..size)
        .map(|r| {
            ScriptClient::spawn(
                &mut s,
                Rank(r),
                vec![
                    Op::Put { key: format!("f.k{r}"), val: Value::Int(i64::from(r)) },
                    Op::Fence { name: "all".into(), nprocs: u64::from(size) },
                    Op::Get { key: format!("f.k{}", (r + 1) % size) },
                ],
            )
        })
        .collect();
    s.run_until_quiet(Some(5_000_000)).expect("no livelock");
    for (r, o) in outcomes.iter().enumerate() {
        let o = o.borrow();
        assert!(o.finished, "rank {r}");
        assert_eq!(o.op_err, [0, 0, 0], "rank {r}");
        // The post-fence read of the neighbour's key succeeds.
        let want = i64::try_from((r + 1) % size as usize).unwrap();
        assert_eq!(o.replies[2].get("v"), Some(&Value::Int(want)), "rank {r}");
        // The fence completes strictly after the put.
        assert!(o.op_done_ns[1] > o.op_done_ns[0]);
    }
}

#[test]
fn sim_is_deterministic() {
    let run = || {
        let mut s = SimSession::new(16, 2, NetParams::default(), kvs_only);
        let outs: Vec<_> = (0..16)
            .map(|r| {
                ScriptClient::spawn(
                    &mut s,
                    Rank(r),
                    vec![
                        Op::Put { key: format!("d.k{r}"), val: Value::from("v".repeat(64)) },
                        Op::Fence { name: "d".into(), nprocs: 16 },
                    ],
                )
            })
            .collect();
        let end = s.run_until_quiet(Some(5_000_000)).expect("no livelock");
        let times: Vec<Vec<u64>> = outs
            .iter()
            .map(|o| o.borrow().op_done_ns.clone())
            .collect();
        (end, times, s.engine().stats())
    };
    assert_eq!(run(), run());
}

#[test]
fn sim_sixteen_clients_per_node_like_the_paper() {
    // The paper fully populates each node with 16 processes.
    let nodes = 8u32;
    let procs_per_node = 16u32;
    let total = u64::from(nodes * procs_per_node);
    let mut s = SimSession::new(nodes, 2, NetParams::default(), kvs_only);
    let mut outcomes = Vec::new();
    for node in 0..nodes {
        for p in 0..procs_per_node {
            let gid = node * procs_per_node + p;
            outcomes.push(ScriptClient::spawn(
                &mut s,
                Rank(node),
                vec![
                    Op::Put { key: format!("m.k{gid}"), val: Value::Int(i64::from(gid)) },
                    Op::Fence { name: "m".into(), nprocs: total },
                ],
            ));
        }
    }
    s.run_until_quiet(Some(5_000_000)).expect("no livelock");
    for (i, o) in outcomes.iter().enumerate() {
        let o = o.borrow();
        assert!(o.finished, "proc {i}");
        assert_eq!(o.op_err, [0, 0], "proc {i}");
    }
}

#[test]
fn sim_failure_detection_and_selfheal_in_virtual_time() {
    // Full module set (hb + live drive detection).
    let mut s = SimSession::new(15, 2, NetParams::default(), |_| standard_modules());
    // Let the session settle (resvc fence + a few heartbeats).
    s.run_until(SimTime::from_nanos(500_000_000));
    s.kill_broker(Rank(5));
    // Heartbeat period 100ms, miss limit 3: detection within ~1s.
    s.run_until(SimTime::from_nanos(2_000_000_000));
    // Rank 11 (child of dead 5) can still commit to the KVS.
    let orphan = ScriptClient::spawn(
        &mut s,
        Rank(11),
        vec![
            Op::Put { key: "heal.k".into(), val: Value::from("alive") },
            Op::Commit,
            Op::Get { key: "heal.k".into() },
        ],
    );
    s.run_until(SimTime::from_nanos(4_000_000_000));
    let o = orphan.borrow();
    assert!(o.finished, "orphaned rank finished its script");
    assert_eq!(o.op_err, [0, 0, 0]);
    assert_eq!(o.replies[2].get("v"), Some(&Value::from("alive")));
}

#[test]
fn sim_kill_broker_forgets_victim_and_drops_its_ghost_traffic() {
    // Regression: `kill_broker` used to leave the victim registered in
    // the address book, so a message already on the wire from the dead
    // broker was still attributed to it and processed by the receiver —
    // here, a ghost `kvs.push` would advance the master's version on
    // behalf of a broker that died before its commit arrived.
    let mut s = SimSession::new(2, 2, NetParams::default(), kvs_only);
    let victim = s.broker_actor(Rank(1));
    let root = s.broker_actor(Rank(0));
    let committer = ScriptClient::spawn(
        &mut s,
        Rank(1),
        vec![Op::Put { key: "ghost.k".into(), val: Value::Int(1) }, Op::Commit],
    );

    // Step one event at a time until rank 1's commit batch is in flight
    // to the root, then kill the sender mid-wire.
    let mut steps = 0;
    loop {
        let pend = s.engine().pending_events();
        let push_on_wire = pend.iter().any(|e| {
            e.to == root
                && matches!(&e.kind,
                    PendingKind::Message { from, topic, .. }
                        if *from == victim && topic.as_str() == "kvs.push")
        });
        if push_on_wire {
            break;
        }
        let next = pend.first().expect("commit batch never left rank 1").seq;
        assert!(s.engine_mut().dispatch_pending(next));
        steps += 1;
        assert!(steps < 10_000, "runaway schedule before the push appeared");
    }
    s.kill_broker(Rank(1));
    assert!(!s.is_broker_actor(victim), "killed broker must be forgotten");
    s.run_until_quiet(None).expect("unbounded runs cannot livelock");
    assert!(!committer.borrow().finished, "the dead broker's client never hears back");

    // The ghost push was ignored at the root: the master never committed.
    let check = ScriptClient::spawn(&mut s, Rank(0), vec![Op::GetVersion]);
    s.run_until_quiet(None).expect("unbounded runs cannot livelock");
    let o = check.borrow();
    assert!(o.finished);
    assert_eq!(o.op_err, [0]);
    assert_eq!(
        o.replies[0].get("version").and_then(Value::as_uint),
        Some(0),
        "a commit from a dead broker must not advance the master"
    );
}
