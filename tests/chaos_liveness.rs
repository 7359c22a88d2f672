//! Chaos liveness: kill a mid-tree broker, watch the overlay self-heal.
//!
//! A blackout window silences one broker for a span of heartbeat epochs.
//! The `live` module must publish `live.down` within
//! `flux_modules::live::MISS_LIMIT` epochs, the tree must re-parent the
//! orphaned subtree so RPCs route around the hole, and when the window
//! ends the broker's hello must produce `live.up`. Exercised on the simulator (exact virtual-time
//! schedule) and the threaded runtime (wall clock, generous margins).

use flux_broker::BrokerConfig;
use flux_modules::live::MISS_LIMIT;
use flux_modules::standard_modules;
use flux_rt::chaos::HB_PERIOD_NS;
use flux_rt::script::Op;
use flux_rt::tcp::TcpSession;
use flux_rt::threads::ThreadSession;
use flux_rt::transport::{drive_script, ScriptTransport, SimTransport};
use flux_rt::FaultPlan;
use flux_value::Value;
use flux_wire::{Rank, Topic};
use std::time::{Duration, Instant};

fn status_op() -> Op {
    Op::Request { topic: Topic::from_static("live.status"), payload: Value::object() }
}

fn up_list(reply: &Value) -> Vec<u64> {
    reply
        .get("up")
        .and_then(Value::as_array)
        .map(|a| a.iter().filter_map(Value::as_uint).collect())
        .unwrap_or_default()
}

/// Simulator: 15 brokers, arity 2. Rank 5 (children 11, 12) is blacked
/// out for epochs [6, 14). An observer at rank 3 sees it reported down
/// by 1.2s (kill epoch 6 + miss limit 3 + detection slack) and back up
/// by 2.0s; a client at rank 11 — inside the orphaned subtree — runs a
/// put/commit/get mid-blackout, which must re-route through rank 2.
#[test]
fn sim_kill_detects_reroutes_and_recovers() {
    let plan = FaultPlan::new(0xF1).kill_epochs(Rank(5), 6..14, HB_PERIOD_NS);
    let observer = vec![
        Op::Pause(1_200_000_000),
        status_op(),
        Op::Pause(800_000_000),
        status_op(),
    ];
    let worker = vec![
        Op::Pause(1_150_000_000),
        Op::Put { key: "chaos.reroute".into(), val: Value::from(7i64) },
        Op::Commit,
        Op::Get { key: "chaos.reroute".into() },
    ];
    let transport = SimTransport {
        faults: Some(plan),
        deadline_ns: Some(2_500_000_000),
        ..Default::default()
    };
    let report = transport.run_scripts(
        15,
        2,
        &|_| standard_modules(),
        vec![(Rank(3), observer), (Rank(11), worker)],
    );

    let obs = &report.outcomes[0];
    assert!(obs.finished, "observer stalled: {:?}", obs.op_err);
    let during = up_list(&obs.replies[1]);
    assert!(
        !during.contains(&5),
        "rank 5 not reported down by 1.2s (kill epoch 6, miss limit {MISS_LIMIT}); up = {during:?}"
    );
    assert!(
        during.contains(&2) && during.contains(&11),
        "healthy ranks wrongly reported down; up = {during:?}"
    );
    let after = up_list(&obs.replies[3]);
    assert!(after.contains(&5), "rank 5 not re-joined by 2.0s; up = {after:?}");

    let wk = &report.outcomes[1];
    assert!(wk.finished, "worker stalled mid-blackout: {:?}", wk.op_err);
    assert_eq!(
        wk.op_err,
        vec![0, 0, 0, 0],
        "put/commit/get through the re-parented subtree must succeed"
    );
    assert_eq!(
        wk.replies[3].get("v").and_then(Value::as_uint),
        Some(7),
        "read-your-writes across the re-routed path"
    );
}

/// Threaded runtime: 7 brokers, arity 2, heartbeats at 40ms. Rank 1
/// (children 3, 4) is blacked out for epochs [8, 24) = [320ms, 960ms).
/// Same assertions as the simulator variant, with wall-clock margins of
/// several epochs around every probe.
#[test]
fn threads_kill_detects_reroutes_and_recovers() {
    const HB: u64 = 40_000_000;
    let plan = FaultPlan::new(0xF2).kill_epochs(Rank(1), 8..24, HB);
    let mut builder = ThreadSession::builder(7, 2, |_| standard_modules());
    for r in 0..7 {
        let mut cfg = BrokerConfig::new(Rank(r), 7).with_arity(2);
        cfg.hb_period_ns = HB;
        builder.set_config(Rank(r), cfg);
    }
    builder.set_faults(&plan);
    let observer = builder.attach_client(Rank(0));
    let worker = builder.attach_client(Rank(3));
    let session = builder.start();
    let epoch = Instant::now();

    let obs_ops = vec![
        Op::Pause(650_000_000),
        status_op(),
        Op::Pause(600_000_000),
        status_op(),
    ];
    let wk_ops = vec![
        Op::Pause(550_000_000),
        Op::Put { key: "chaos.reroute".into(), val: Value::from(9i64) },
        Op::Commit,
        Op::Get { key: "chaos.reroute".into() },
    ];
    let timeout = Duration::from_secs(10);
    let h_obs = std::thread::spawn(move || drive_script(&observer, &obs_ops, epoch, timeout));
    let h_wk = std::thread::spawn(move || drive_script(&worker, &wk_ops, epoch, timeout));
    let obs = h_obs.join().expect("observer driver panicked");
    let wk = h_wk.join().expect("worker driver panicked");
    session.shutdown();

    assert!(obs.finished, "observer stalled: {:?}", obs.op_err);
    let during = up_list(&obs.replies[1]);
    assert!(
        !during.contains(&1),
        "rank 1 not reported down by 650ms (kill at 320ms, miss limit {MISS_LIMIT} @ 40ms); \
         up = {during:?}"
    );
    let after = up_list(&obs.replies[3]);
    assert!(after.contains(&1), "rank 1 not re-joined by 1.25s; up = {after:?}");

    assert!(wk.finished, "worker stalled mid-blackout: {:?}", wk.op_err);
    assert_eq!(
        wk.op_err,
        vec![0, 0, 0, 0],
        "put/commit/get from the orphaned subtree must re-route and succeed"
    );
    assert_eq!(wk.replies[3].get("v").and_then(Value::as_uint), Some(9));
}

/// The reactor runtime: same scenario as the threads variant — rank 1
/// blacked out for epochs [8, 24) at a 40ms heartbeat — but every
/// heartbeat, re-parent, and re-routed RPC crosses real loopback sockets
/// through the nonblocking reactor state machines.
#[test]
fn reactor_tcp_kill_detects_reroutes_and_recovers() {
    const HB: u64 = 40_000_000;
    let plan = FaultPlan::new(0xF2).kill_epochs(Rank(1), 8..24, HB);
    let mut builder = TcpSession::builder(7, 2, |_| standard_modules());
    for r in 0..7 {
        let mut cfg = BrokerConfig::new(Rank(r), 7).with_arity(2);
        cfg.hb_period_ns = HB;
        builder.set_config(Rank(r), cfg);
    }
    builder.set_faults(&plan);
    let observer = builder.attach_client(Rank(0));
    let worker = builder.attach_client(Rank(3));
    let session = builder.start();
    let epoch = Instant::now();

    let obs_ops = vec![
        Op::Pause(650_000_000),
        status_op(),
        Op::Pause(600_000_000),
        status_op(),
    ];
    let wk_ops = vec![
        Op::Pause(550_000_000),
        Op::Put { key: "chaos.reroute".into(), val: Value::from(9i64) },
        Op::Commit,
        Op::Get { key: "chaos.reroute".into() },
    ];
    let timeout = Duration::from_secs(10);
    let h_obs = std::thread::spawn(move || drive_script(&observer, &obs_ops, epoch, timeout));
    let h_wk = std::thread::spawn(move || drive_script(&worker, &wk_ops, epoch, timeout));
    let obs = h_obs.join().expect("observer driver panicked");
    let wk = h_wk.join().expect("worker driver panicked");
    session.shutdown();

    assert!(obs.finished, "observer stalled: {:?}", obs.op_err);
    let during = up_list(&obs.replies[1]);
    assert!(
        !during.contains(&1),
        "rank 1 not reported down by 650ms (kill at 320ms, miss limit {MISS_LIMIT} @ 40ms); \
         up = {during:?}"
    );
    let after = up_list(&obs.replies[3]);
    assert!(after.contains(&1), "rank 1 not re-joined by 1.25s; up = {after:?}");

    assert!(wk.finished, "worker stalled mid-blackout: {:?}", wk.op_err);
    assert_eq!(
        wk.op_err,
        vec![0, 0, 0, 0],
        "put/commit/get from the orphaned subtree must re-route and succeed"
    );
    assert_eq!(wk.replies[3].get("v").and_then(Value::as_uint), Some(9));
}
