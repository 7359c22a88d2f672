//! Transport-conformance battery: one set of checks, both runtimes.
//!
//! Each `check_*` function drives a full behavioural scenario —
//! handshake + rank-addressed RPC, KVS put/commit/get + barrier, watch
//! streams, a 32-deep pipelined request window, a 16-broker fence, the
//! stale-read guard, ordered shutdown under load — against the live
//! loopback-TCP [`LiveTransport`], or any [`ScriptTransport`] for the two
//! scripted scenarios, which therefore also run on the simulator. The
//! last test runs one script on both runtimes, at one shard and at two,
//! and demands the same answers.

use flux_broker::client::{ClientCore, Delivery};
use flux_broker::CommsModule;
use flux_kvs::msg::decode_cut;
use flux_kvs::KvsConfig;
use flux_modules::{standard_modules, BarrierModule};
use flux_proto::{BarrierMethod, CmbMethod, KvsMethod};
use flux_rt::script::Op;
use flux_rt::transport::{LiveTransport, ScriptTransport, SimTransport, TransportKind};
use flux_rt::LiveClient;
use flux_value::Value;
use flux_wire::{Message, Rank, Topic};
use std::time::{Duration, Instant};

/// How long any single conformance step may wait for a reply.
const CONFORMANCE_TIMEOUT: Duration = Duration::from_secs(10);

fn kvs_modules(_r: Rank) -> Vec<Box<dyn CommsModule>> {
    vec![
        Box::new(flux_kvs::KvsModule::new()) as Box<dyn CommsModule>,
        Box::new(BarrierModule::new()),
    ]
}

/// Waits for the response carrying `tag`, delivering (and discarding)
/// interleaved events and other responses through `core` — the MsgId
/// matching path pipelined clients rely on.
fn await_reply(client: &LiveClient, core: &mut ClientCore, tag: u64, what: &str) -> Message {
    let deadline = Instant::now() + CONFORMANCE_TIMEOUT;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        assert!(!left.is_zero(), "conformance: timed out waiting for {what}");
        let Some(msg) = client.recv_timeout(left) else { continue };
        match core.deliver(msg) {
            Delivery::Response { tag: t, msg } if t == tag => return msg,
            Delivery::Response { .. } | Delivery::Event(_) | Delivery::Unmatched(_) => continue,
        }
    }
}

/// One synchronous RPC: send, then wait for the matching reply.
fn rpc(
    client: &LiveClient,
    core: &mut ClientCore,
    topic: Topic,
    payload: Value,
    tag: u64,
    what: &str,
) -> Message {
    client.send(core.request(topic, payload, tag));
    await_reply(client, core, tag, what)
}

/// Handshake + RPC reachability: a client attached to one broker pings
/// its local broker and then, rank-addressed, every other broker in the
/// session. Every pong must name the broker that answered.
fn check_handshake_rpc(t: &LiveTransport) {
    let size = 4u32;
    t.with_session(size, 2, &|_| standard_modules(), &[Rank(1)], |clients| {
        let client = &clients[0];
        let mut core = ClientCore::new(Rank(1), client.client_id);

        let local =
            rpc(client, &mut core, CmbMethod::Ping.topic(), Value::object(), 0, "local ping");
        assert!(!local.is_error(), "{}: local ping errored", t.name());
        assert_eq!(local.payload.get("pong").and_then(Value::as_uint), Some(1), "{}", t.name());

        for to in 0..size {
            let tag = 100 + u64::from(to);
            client.send(core.request_to(Rank(to), CmbMethod::Ping.topic(), Value::object(), tag));
            let resp = await_reply(client, &mut core, tag, "rank-addressed ping");
            assert!(!resp.is_error(), "{}: ping to rank {to} errored", t.name());
            assert_eq!(
                resp.payload.get("pong").and_then(Value::as_uint),
                Some(u64::from(to)),
                "{}: wrong broker answered the ping to rank {to}",
                t.name()
            );
        }
    });
}

/// The core KVS flow across brokers — put + commit on one leaf, a
/// version-waited read on another — plus a two-party barrier.
fn check_put_commit_get_and_barrier(t: &LiveTransport) {
    let ranks = [Rank(5), Rank(2), Rank(0), Rank(7)];
    t.with_session(8, 2, &kvs_modules, &ranks, |clients| {
        let [writer, reader, b1, b2] = &clients[..] else { panic!("four clients") };

        let mut wc = ClientCore::new(Rank(5), writer.client_id);
        let put = rpc(
            writer,
            &mut wc,
            KvsMethod::Put.topic(),
            Value::from_pairs([("k", Value::from("t.x")), ("v", Value::Int(11))]),
            1,
            "put ack",
        );
        assert!(!put.is_error(), "{}: put", t.name());
        let commit =
            rpc(writer, &mut wc, KvsMethod::Commit.topic(), Value::object(), 2, "commit reply");
        assert!(!commit.is_error(), "{}: commit", t.name());
        let version = commit.payload.get("version").and_then(Value::as_uint).unwrap_or(0);
        assert!(version >= 1, "{}: commit version {version}", t.name());

        let mut rc = ClientCore::new(Rank(2), reader.client_id);
        let wait = rpc(
            reader,
            &mut rc,
            KvsMethod::WaitVersion.topic(),
            Value::from_pairs([("version", Value::from(version as i64))]),
            1,
            "wait_version reply",
        );
        assert!(!wait.is_error(), "{}: wait_version", t.name());
        let get = rpc(
            reader,
            &mut rc,
            KvsMethod::Get.topic(),
            Value::from_pairs([("k", Value::from("t.x"))]),
            2,
            "get reply",
        );
        assert_eq!(get.payload.get("v"), Some(&Value::Int(11)), "{}", t.name());

        // Barrier across two clients on different brokers: neither can be
        // released until both have entered.
        let mut c1 = ClientCore::new(Rank(0), b1.client_id);
        let mut c2 = ClientCore::new(Rank(7), b2.client_id);
        let enter = Value::from_pairs([("name", Value::from("tb")), ("nprocs", Value::Int(2))]);
        b1.send(c1.request(BarrierMethod::Enter.topic(), enter.clone(), 3));
        b2.send(c2.request(BarrierMethod::Enter.topic(), enter, 3));
        assert!(!await_reply(b1, &mut c1, 3, "b1 released").is_error(), "{}", t.name());
        assert!(!await_reply(b2, &mut c2, 3, "b2 released").is_error(), "{}", t.name());
    });
}

/// Watch streams: a watcher gets the initial snapshot, then an update
/// pushed by a commit on a different broker.
fn check_watch_streams(t: &LiveTransport) {
    let modules = |_r| vec![Box::new(flux_kvs::KvsModule::new()) as Box<dyn CommsModule>];
    t.with_session(4, 2, &modules, &[Rank(3), Rank(1)], |clients| {
        let [watcher, writer] = &clients[..] else { panic!("two clients") };

        let mut wcli = flux_kvs::client::KvsClient::new(Rank(3), watcher.client_id);
        let (wreq, _) = wcli.watch("tw.key", 1);
        watcher.send(wreq);
        let snap = watcher.recv_timeout(CONFORMANCE_TIMEOUT);
        assert!(snap.is_some(), "{}: no initial snapshot", t.name());
        assert_eq!(
            snap.and_then(|m| m.payload.get("v").cloned()),
            Some(Value::Null),
            "{}",
            t.name()
        );

        let mut pcli = flux_kvs::client::KvsClient::new(Rank(1), writer.client_id);
        writer.send(pcli.put("tw.key", Value::Int(5), 1));
        assert!(writer.recv_timeout(CONFORMANCE_TIMEOUT).is_some(), "{}: put ack", t.name());
        writer.send(pcli.commit(2));
        assert!(writer.recv_timeout(CONFORMANCE_TIMEOUT).is_some(), "{}: commit ack", t.name());

        let update = watcher.recv_timeout(CONFORMANCE_TIMEOUT);
        assert_eq!(
            update.and_then(|m| m.payload.get("v").cloned()),
            Some(Value::Int(5)),
            "{}: watch update",
            t.name()
        );
    });
}

/// Pipelining: a client fires a window of requests back-to-back without
/// reading a single reply, then collects them all — every tag answered
/// exactly once, matched by MsgId regardless of arrival order.
fn check_pipelined_rpcs(t: &LiveTransport) {
    let window = 32u64;
    t.with_session(4, 2, &kvs_modules, &[Rank(3)], |clients| {
        let client = &clients[0];
        let mut core = ClientCore::new(Rank(3), client.client_id);

        for tag in 0..window {
            // Alternate local pings, rank-addressed pings, and KVS puts so
            // the in-flight window spans services and planes.
            let msg = match tag % 3 {
                0 => core.request(CmbMethod::Ping.topic(), Value::object(), tag),
                1 => core.request_to(
                    Rank((tag % 4) as u32),
                    CmbMethod::Ping.topic(),
                    Value::object(),
                    tag,
                ),
                _ => core.request(
                    KvsMethod::Put.topic(),
                    Value::from_pairs([
                        ("k", Value::from(format!("p.k{tag}"))),
                        ("v", Value::Int(tag as i64)),
                    ]),
                    tag,
                ),
            };
            client.send(msg);
        }

        let mut seen = vec![false; window as usize];
        let deadline = Instant::now() + CONFORMANCE_TIMEOUT;
        let mut answered = 0u64;
        while answered < window {
            let left = deadline.saturating_duration_since(Instant::now());
            assert!(
                !left.is_zero(),
                "{}: pipelined window stalled at {answered}/{window} replies",
                t.name()
            );
            let Some(msg) = client.recv_timeout(left) else { continue };
            match core.deliver(msg) {
                Delivery::Response { tag, msg } => {
                    assert!(!msg.is_error(), "{}: tag {tag} errored", t.name());
                    let idx = tag as usize;
                    assert!(idx < seen.len(), "{}: unknown tag {tag}", t.name());
                    assert!(!seen[idx], "{}: tag {tag} answered twice", t.name());
                    seen[idx] = true;
                    answered += 1;
                }
                Delivery::Event(_) | Delivery::Unmatched(_) => continue,
            }
        }
        assert!(seen.iter().all(|&s| s), "{}: every tag answered", t.name());
    });
}

/// A 16-broker session running a fence across sixteen writers, one per
/// rank — the all-to-all synchronization shape from the paper's KAP
/// benchmark, via the scripted driver.
fn check_sixteen_broker_fence(t: &dyn ScriptTransport) {
    let size = 16u32;
    let scripts: Vec<(Rank, Vec<Op>)> = (0..size)
        .map(|r| {
            (
                Rank(r),
                vec![
                    Op::Put { key: format!("c16.k{r}"), val: Value::Int(i64::from(r)) },
                    Op::Fence { name: "c16".into(), nprocs: u64::from(size) },
                    Op::Get { key: format!("c16.k{}", (r + 1) % size) },
                ],
            )
        })
        .collect();
    let report = t.run_scripts(size, 2, &kvs_modules, scripts);
    for (r, o) in report.outcomes.iter().enumerate() {
        assert!(o.finished, "{}: rank {r} unfinished", t.name());
        assert_eq!(o.op_err, [0, 0, 0], "{}: rank {r}", t.name());
        let want = ((r + 1) % size as usize) as i64;
        assert_eq!(
            o.replies[2].get("v"),
            Some(&Value::Int(want)),
            "{}: rank {r} read its neighbour's pre-fence write",
            t.name()
        );
    }
}

/// No stale reads after `wait_version`: a slave adopts the new root
/// before any waiter is answered. A reader that waits for version N and
/// then gets a key must see at least the version-N value, never an
/// older object its broker still holds warm.
fn check_no_stale_reads(t: &dyn ScriptTransport) {
    let writer = vec![
        Op::Put { key: "sr.k".into(), val: Value::Int(1) },
        Op::Commit,
        Op::Pause(200_000),
        Op::Put { key: "sr.k".into(), val: Value::Int(2) },
        Op::Commit,
    ];
    let reader = vec![
        Op::WaitVersion(1),
        Op::Get { key: "sr.k".into() }, // faults the path in
        Op::Get { key: "sr.k".into() }, // served from the warm cache
        Op::WaitVersion(2),
        Op::Get { key: "sr.k".into() }, // must NOT be the cached v1
    ];
    let scripts = vec![(Rank(1), writer), (Rank(3), reader)];
    let report = t.run_scripts(4, 2, &kvs_modules, scripts);
    for (i, o) in report.outcomes.iter().enumerate() {
        assert!(o.finished, "{}: script {i} unfinished", t.name());
        assert!(
            o.op_err.iter().all(|&e| e == 0),
            "{}: script {i} errors {:?}",
            t.name(),
            o.op_err
        );
    }
    let reader = &report.outcomes[1];
    // The first read happens at version >= 1: value 1 or 2 are both
    // legal (the second commit may already have landed).
    let first = reader.replies[1].get("v").and_then(Value::as_int).unwrap_or(-1);
    assert!(first == 1 || first == 2, "{}: first read {first}", t.name());
    // The warm re-read must agree with the first (monotonic reads).
    let second = reader.replies[2].get("v").and_then(Value::as_int).unwrap_or(-1);
    assert!(second >= first, "{}: re-read went backwards", t.name());
    // After wait_version(2) only v2 is acceptable.
    let last = reader.replies[4].get("v").and_then(Value::as_int).unwrap_or(-1);
    assert_eq!(last, 2, "{}: stale read after wait_version(2)", t.name());
}

/// Ordered shutdown under load: clients fire a burst of requests and the
/// session is torn down without ever reading the replies. The check is
/// that shutdown returns — every broker thread joins — with traffic
/// still in flight, and does not panic.
fn check_ordered_shutdown_under_load(t: &LiveTransport) {
    let ranks: Vec<Rank> = (0..4).map(|r| Rank(2 * r)).collect();
    t.with_session(8, 2, &kvs_modules, &ranks, |clients| {
        for client in &clients {
            let mut core = ClientCore::new(client.rank, client.client_id);
            for tag in 0..50u64 {
                let msg = if tag % 2 == 0 {
                    core.request(
                        KvsMethod::Put.topic(),
                        Value::from_pairs([
                            ("k", Value::from(format!("sd.{}.{tag}", client.rank.0))),
                            ("v", Value::Int(tag as i64)),
                        ]),
                        tag,
                    )
                } else {
                    core.request(KvsMethod::Commit.topic(), Value::object(), tag)
                };
                client.send(msg);
            }
        }
        // No draining: shutdown must cope with a full inbound queue and
        // replies still buffered outbound. The clients stay alive across
        // it, as a caller's would.
        clients
    });
}

/// The seven checks on the live transport.
mod reactor_tcp {
    use super::*;

    fn live() -> LiveTransport {
        TransportKind::Tcp.live().expect("tcp is a live transport")
    }

    #[test]
    fn handshake_rpc() {
        check_handshake_rpc(&live());
    }

    #[test]
    fn put_commit_get_and_barrier() {
        check_put_commit_get_and_barrier(&live());
    }

    #[test]
    fn watch_streams() {
        check_watch_streams(&live());
    }

    #[test]
    fn pipelined_rpcs() {
        check_pipelined_rpcs(&live());
    }

    #[test]
    fn sixteen_broker_fence() {
        check_sixteen_broker_fence(&live());
    }

    #[test]
    fn no_stale_reads() {
        check_no_stale_reads(&live());
    }

    #[test]
    fn ordered_shutdown_under_load() {
        check_ordered_shutdown_under_load(&live());
    }
}

mod sim {
    use super::*;

    #[test]
    fn sixteen_broker_fence() {
        check_sixteen_broker_fence(&SimTransport::default());
    }

    #[test]
    fn no_stale_reads() {
        check_no_stale_reads(&SimTransport::default());
    }
}

/// Cross-transport agreement (ROADMAP 5(a) in miniature): one
/// single-writer script must be answered identically on the simulator
/// and over sockets — the same errors, the same commit cut (root
/// references and versions; object ids are content hashes, so equal
/// roots mean equal trees) and the same values read back. At two shards
/// the keys land on both masters, so the commit answers with a two-root
/// frontier.
#[test]
fn one_script_agrees_on_sim_and_tcp() {
    let script = vec![
        Op::Put { key: "x.a".into(), val: Value::Int(7) },
        Op::Put { key: "x.b.c".into(), val: Value::from("seven") },
        Op::Put { key: "y.d".into(), val: Value::Bool(true) },
        Op::Commit,
        Op::Get { key: "x.a".into() },
        Op::Get { key: "x.b.c".into() },
        Op::Get { key: "y.d".into() },
        Op::Get { key: "x.missing".into() },
    ];
    for shards in [1u32, 2] {
        let modules = move |_: Rank| {
            let config = KvsConfig { shards, ..KvsConfig::default() };
            vec![
                Box::new(flux_kvs::KvsModule::with_config(config)) as Box<dyn CommsModule>,
                Box::new(BarrierModule::new()),
            ]
        };
        let run = |t: &dyn ScriptTransport| {
            let report = t.run_scripts(4, 2, &modules, vec![(Rank(3), script.clone())]);
            let o = &report.outcomes[0];
            assert!(o.finished, "{} at {shards} shard(s): unfinished", t.name());
            let cut = decode_cut(&o.replies[3]);
            assert_eq!(cut.roots.len(), shards as usize, "{}: one root per shard", t.name());
            assert!(
                cut.roots.iter().all(|r| r.version == 1 && !r.root.is_empty()),
                "{}: every shard committed once: {cut:?}",
                t.name()
            );
            (o.op_err.clone(), cut, o.replies[4..].to_vec())
        };
        let sim = run(&SimTransport::default());
        assert_eq!(sim.0[..7], [0; 7], "sim at {shards} shard(s): {:?}", sim.0);
        assert_ne!(sim.0[7], 0, "sim: a missing key is an error");
        let tcp = TransportKind::Tcp.live().expect("tcp is a live transport");
        assert_eq!(run(&tcp), sim, "tcp disagrees with the simulator at {shards} shard(s)");
    }
}
