//! Property test: master-side commit batching preserves the KVS
//! consistency contract for any batch window and flush threshold.
//!
//! Random commit storms run against a session whose master coalesces
//! concurrent pushes; the recorded per-client histories are validated
//! with the same checker (`flux_kvs::history`) the chaos sweep uses.

use flux_broker::testing::TestNet;
use flux_broker::CommsModule;
use flux_kvs::client::{KvsClient, KvsDelivery, KvsReply};
use flux_kvs::history::{check, ClientHistory, Event};
use flux_kvs::{KvsConfig, KvsModule};
use flux_value::Value;
use flux_wire::{Message, Rank};
use proptest::prelude::*;

fn pump_one(net: &mut TestNet, rank: Rank, cid: u32) -> Message {
    let mut msgs = net.take_client_msgs(rank, cid);
    for _ in 0..2000 {
        if !msgs.is_empty() {
            break;
        }
        if !net.fire_next_timer() {
            break;
        }
        msgs.extend(net.take_client_msgs(rank, cid));
    }
    assert_eq!(msgs.len(), 1, "one reply expected");
    msgs.remove(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Writers on distinct slave ranks stage and commit in rounds; every
    /// round's pushes land inside one batch window. Whatever the window
    /// and threshold, the histories must satisfy read-your-writes,
    /// monotonic reads, and monotonic versions — and the master must
    /// never walk the hash tree more often than it received pushes.
    #[test]
    fn batched_commit_storms_stay_consistent(
        writers in 2u32..6,
        rounds in 1u64..4,
        window_sel in 0usize..4,
        batch_max in 1usize..8,
    ) {
        let window = [0u64, 500, 5_000, 50_000][window_sel];
        let size = writers + 1;
        let cfg = KvsConfig { batch_window_ns: window, batch_max, ..KvsConfig::default() };
        let mut net = TestNet::new(size, 2, move |_| {
            vec![Box::new(KvsModule::with_config(cfg)) as Box<dyn CommsModule>]
        });
        let mut clients: Vec<KvsClient> =
            (1..=writers).map(|r| KvsClient::new(Rank(r), 0)).collect();
        let mut histories: Vec<ClientHistory> = (1..=writers)
            .map(|r| ClientHistory { client: format!("rank{r}"), events: Vec::new() })
            .collect();
        for round in 1..=rounds {
            // All writers stage and commit before any timer fires, so the
            // round's pushes are concurrent at the master.
            for w in 0..writers {
                let rank = Rank(w + 1);
                let c = &mut clients[w as usize];
                let put = c.put(&format!("bp.w{w}"), Value::Int(round as i64), 1);
                net.client_send(rank, 0, put);
                let ack = c.deliver(pump_one(&mut net, rank, 0));
                prop_assert!(
                    matches!(ack, KvsDelivery::Reply { reply: KvsReply::Ack, .. }),
                    "{ack:?}"
                );
                let commit = c.commit(2);
                net.client_send(rank, 0, commit);
            }
            for w in 0..writers {
                let rank = Rank(w + 1);
                let m = pump_one(&mut net, rank, 0);
                match clients[w as usize].deliver(m) {
                    KvsDelivery::Reply { reply: KvsReply::Frontier { frontier, .. }, .. } => {
                        prop_assert_eq!(frontier.len(), 1, "one shard: {:?}", frontier);
                        for at in frontier {
                            histories[w as usize].events.push(Event::Committed {
                                key: format!("bp.w{w}"),
                                gen: round,
                                shard: at.shard,
                                version: at.version,
                            });
                        }
                    }
                    other => prop_assert!(false, "commit reply {other:?}"),
                }
            }
        }
        // Read-your-writes after the storm, each key read twice.
        for w in 0..writers {
            let rank = Rank(w + 1);
            let c = &mut clients[w as usize];
            for tag in [3, 4] {
                let get = c.get(&format!("bp.w{w}"), tag);
                net.client_send(rank, 0, get);
                let m = pump_one(&mut net, rank, 0);
                match c.deliver(m) {
                    KvsDelivery::Reply { reply: KvsReply::Value(v), .. } => {
                        histories[w as usize].events.push(Event::Read {
                            key: format!("bp.w{w}"),
                            gen: v.as_int().map(|g| g as u64),
                        });
                    }
                    other => prop_assert!(false, "get reply {other:?}"),
                }
            }
        }
        // An independent observer interleaves version probes with reads
        // of every key (monotonic reads + versions across clients).
        let mut obs = KvsClient::new(Rank(1), 9);
        let mut oh = ClientHistory { client: "observer".into(), events: Vec::new() };
        for pass in 0..2u64 {
            let probe = obs.get_version(10 + pass);
            net.client_send(Rank(1), 9, probe);
            match obs.deliver(pump_one(&mut net, Rank(1), 9)) {
                KvsDelivery::Reply { reply: KvsReply::Version(at), .. } => {
                    oh.events.push(Event::Version { shard: at.shard, v: at.version });
                }
                other => prop_assert!(false, "probe {other:?}"),
            }
            for w in 0..writers {
                let get = obs.get(&format!("bp.w{w}"), 20);
                net.client_send(Rank(1), 9, get);
                match obs.deliver(pump_one(&mut net, Rank(1), 9)) {
                    KvsDelivery::Reply { reply: KvsReply::Value(v), .. } => {
                        oh.events.push(Event::Read {
                            key: format!("bp.w{w}"),
                            gen: v.as_int().map(|g| g as u64),
                        });
                    }
                    other => prop_assert!(false, "observer get {other:?}"),
                }
            }
        }
        histories.push(oh);
        let violations = check(&histories);
        prop_assert!(violations.is_empty(), "{violations:?}");
        // Master-side accounting: applies never exceed pushes, and a full
        // round parked inside one window must actually coalesce.
        let mut probe = KvsClient::new(Rank(0), 5);
        let st = probe.stats(1);
        net.client_send(Rank(0), 5, st);
        match probe.deliver(pump_one(&mut net, Rank(0), 5)) {
            KvsDelivery::Reply { reply: KvsReply::Stats(s), .. } => {
                let commits = s.get("commits").and_then(Value::as_int).unwrap();
                let total = i64::from(writers) * rounds as i64;
                prop_assert!(commits <= total, "applies {commits} > pushes {total}");
                if window > 0 && batch_max as u32 >= writers {
                    prop_assert!(
                        commits < total,
                        "a round inside one window must coalesce ({commits} of {total})"
                    );
                }
            }
            other => prop_assert!(false, "stats {other:?}"),
        }
    }
}
