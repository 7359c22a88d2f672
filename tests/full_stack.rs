//! Cross-crate integration: the full module stack, both runtimes, and
//! the framework layer driving the substrate's resource service.

#![allow(clippy::disallowed_methods, reason = "a test builds its topics directly")]

use flux_broker::client::ClientCore;
use flux_core::{Fcfs, Instance, InstanceConfig, JobSpec, JobState};
use flux_modules::standard_modules;
use flux_rt::script::{Op, ScriptClient};
use flux_rt::sim::SimSession;
use flux_rt::tcp::TcpSession;
use flux_rt::transport::{LiveTransport, ScriptTransport};
use flux_sim::{NetParams, SimTime};
use flux_value::Value;
use flux_wire::{Rank, Topic};
use std::time::Duration;

/// All nine Table I modules on the simulator, driven end to end: resvc
/// enumerates into the KVS, wexec runs a job whose output a client reads
/// back, mon aggregates a metric, log reaches the root.
#[test]
fn standard_session_lifecycle_in_virtual_time() {
    let size = 31u32;
    let mut session = SimSession::new(size, 2, NetParams::default(), |_| standard_modules());

    // Settle: resource enumeration fence + first heartbeats.
    session.run_until(SimTime::from_nanos(1_000_000_000));

    // A tool client on a leaf: check resources, run a bulk job, read its
    // output, query the session log.
    let tool = ScriptClient::spawn(
        &mut session,
        Rank(30),
        vec![
            Op::Get { key: "resource.r17".into() },
            Op::Request {
                topic: Topic::from_static("wexec.run"),
                payload: Value::from_pairs([
                    ("jobid", Value::Int(77)),
                    ("cmd", Value::from("echo out$RANK")),
                    ("targets", Value::from("all")),
                ]),
            },
            Op::Request {
                topic: Topic::from_static("log.msg"),
                payload: Value::from_pairs([
                    ("level", Value::Int(6)),
                    ("text", Value::from("tool ran job 77")),
                ]),
            },
        ],
    );
    session.run_until(SimTime::from_nanos(3_000_000_000));
    {
        let o = tool.borrow();
        assert!(o.finished);
        assert_eq!(o.op_err, [0, 0, 0]);
        assert_eq!(
            o.replies[0].get("v").unwrap().get("cores"),
            Some(&Value::Int(16)),
            "resvc enumerated node inventories"
        );
        assert_eq!(o.replies[1].get("ntasks"), Some(&Value::Int(i64::from(size))));
    }

    // Job output and completion record are in the KVS; the log query
    // reaches the root's session log.
    let checker = ScriptClient::spawn(
        &mut session,
        Rank(9),
        vec![
            Op::Get { key: "lwj.77.22.stdout".into() },
            Op::Get { key: "lwj.77.complete".into() },
            Op::Request {
                topic: Topic::from_static("log.query"),
                payload: Value::object(),
            },
        ],
    );
    session.run_until(SimTime::from_nanos(6_000_000_000));
    let o = checker.borrow();
    assert!(o.finished);
    assert_eq!(o.op_err, [0, 0, 0], "{:?}", o.op_err);
    assert_eq!(o.replies[0].get("v"), Some(&Value::from("out22")));
    assert_eq!(
        o.replies[1].get("v").unwrap().get("failed"),
        Some(&Value::Int(0))
    );
    let entries = o.replies[2].get("entries").unwrap().as_array().unwrap();
    assert!(
        entries
            .iter()
            .any(|e| e.get("text").and_then(Value::as_str) == Some("tool ran job 77")),
        "log reduced to the root"
    );
}

/// The same broker + module code on OS threads wired over real loopback
/// TCP sockets: a rank-addressed ping proves the ring, then a KVS round
/// trip proves tree routing and write-back over the sockets.
#[test]
fn tcp_session_with_standard_modules() {
    let mut builder = TcpSession::builder(6, 2, |_| standard_modules());
    let client = builder.attach_client(Rank(5));
    let session = builder.start();
    let timeout = Duration::from_secs(10);

    let mut core = ClientCore::new(Rank(5), client.client_id);
    client.send(core.request_to(Rank(3), Topic::from_static("cmb.ping"), Value::object(), 1));
    let pong = client.recv_timeout(timeout).expect("pong over tcp");
    assert_eq!(pong.payload.get("pong"), Some(&Value::Int(3)));

    client.send(core.request(
        Topic::from_static("kvs.put"),
        Value::from_pairs([("k", Value::from("tcp.k")), ("v", Value::from("sockets"))]),
        2,
    ));
    assert!(!client.recv_timeout(timeout).expect("ack").is_error());
    client.send(core.request(Topic::from_static("kvs.commit"), Value::object(), 3));
    assert!(!client.recv_timeout(timeout).expect("commit").is_error());
    client.send(core.request(
        Topic::from_static("kvs.get"),
        Value::from_pairs([("k", Value::from("tcp.k"))]),
        4,
    ));
    let got = client.recv_timeout(timeout).expect("get");
    assert_eq!(got.payload.get("v"), Some(&Value::from("sockets")));

    session.shutdown();
}

/// A 16-broker loopback-TCP session wires up and completes a full KVS
/// cycle across ranks: every rank puts and commits its own key, all 16
/// meet at a fence, then each reads its neighbour's key — so every value
/// crosses real sockets between distinct brokers.
#[test]
fn tcp_session_16_brokers_full_kvs_cycle() {
    let size = 16u32;
    let scripts: Vec<(Rank, Vec<Op>)> = (0..size)
        .map(|r| {
            (
                Rank(r),
                vec![
                    Op::Put { key: format!("tcp16.r{r}"), val: Value::Int(i64::from(r)) },
                    Op::Commit,
                    Op::Fence { name: "tcp16.sync".into(), nprocs: u64::from(size) },
                    Op::Get { key: format!("tcp16.r{}", (r + 1) % size) },
                ],
            )
        })
        .collect();
    let tcp = LiveTransport::default();
    let report = tcp.run_scripts(size, 2, &|_| standard_modules(), scripts);
    assert_eq!(report.outcomes.len(), size as usize);
    for (r, out) in report.outcomes.iter().enumerate() {
        assert!(out.finished, "rank {r} did not finish");
        assert_eq!(out.op_err, [0, 0, 0, 0], "rank {r} errors: {:?}", out.op_err);
        let expect = i64::from((r as u32 + 1) % size);
        assert_eq!(
            out.replies[3].get("v"),
            Some(&Value::Int(expect)),
            "rank {r} read its neighbour's committed value over TCP"
        );
    }
}

/// The framework layer's accounting agrees with a brute-force replay of
/// its own history (capacity usage reconstructed at every event time).
#[test]
fn instance_history_is_self_consistent() {
    let mut inst = Instance::root(InstanceConfig::new("audit", 12), Box::new(Fcfs));
    let mut wl = flux_core::Workload::seeded(99);
    for spec in wl.capability_mix(60, 12, 10_000) {
        inst.submit(spec);
    }
    inst.drain();
    let events = inst.history();
    assert_eq!(events.len(), 60);
    // At every start instant, the sum of nodes held by overlapping jobs
    // stays within the grant.
    for e in events {
        let t = e.start_ns.unwrap();
        let held: u32 = events
            .iter()
            .filter(|o| {
                o.state == JobState::Complete
                    && o.start_ns.unwrap() <= t
                    && o.end_ns.unwrap() > t
            })
            .map(|o| o.nodes)
            .sum();
        assert!(held <= 12, "overcommit at t={t}: {held}");
    }
}

/// Rigid jobs too big for a leased partition are the submitter's bug, not
/// a framework hang: drain panics with a clear message.
#[test]
fn oversized_job_in_child_is_loud() {
    let mut parent = Instance::root(InstanceConfig::new("p", 8), Box::new(Fcfs));
    let child = parent
        .spawn_child(InstanceConfig::new("c", 2), Box::new(Fcfs))
        .unwrap();
    parent.child_mut(child).unwrap().submit(JobSpec::rigid("big", 4, 10));
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| parent.drain()));
    assert!(r.is_err());
}
