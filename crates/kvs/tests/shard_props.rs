//! Property test: sharded multi-master commits preserve the KVS
//! consistency contract across shard boundaries.
//!
//! Random key sets are spread over 1–8 shard masters; writers on slave
//! ranks run concurrent commit storms and collective fences. The
//! recorded histories are validated with the extended cross-shard
//! checker (`flux_kvs::history`): read-your-writes and monotonic reads
//! per client across shard boundaries, per-shard monotonic versions,
//! and fence-frontier agreement.

use std::collections::HashMap;

use flux_broker::testing::TestNet;
use flux_broker::CommsModule;
use flux_kvs::client::{KvsClient, KvsDelivery, KvsReply};
use flux_kvs::history::{check, ClientHistory, Event};
use flux_kvs::msg::RootRef;
use flux_kvs::shard::shard_of_key;
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

/// The keys writer `w` owns in this run (two per writer so most runs
/// span several shards).
fn writer_keys(salt: u32, w: u32) -> Vec<String> {
    (0..2).map(|j| format!("sp.{salt}.w{w}.k{j}")).collect()
}

/// Records a commit/fence reply's frontier into `events`: one
/// `Committed` (or `Fenced`) per key plus the per-shard version
/// observations the frontier implies.
#[allow(clippy::too_many_arguments)]
fn record_frontier(
    events: &mut Vec<Event>,
    keys: &[String],
    gen: u64,
    shards: u32,
    frontier: &[RootRef],
    fence: Option<&str>,
) {
    let fmap: HashMap<u32, u64> = frontier.iter().map(|r| (r.shard, r.version)).collect();
    for key in keys {
        let shard = shard_of_key(key, shards).unwrap();
        let version = *fmap.get(&shard).expect("frontier covers every written shard");
        match fence {
            Some(name) => events.push(Event::Fenced {
                name: name.to_owned(),
                key: key.clone(),
                gen,
                shard,
            }),
            None => events.push(Event::Committed {
                key: key.clone(),
                gen,
                shard,
                version,
            }),
        }
    }
    if let Some(name) = fence {
        events.push(Event::FenceDone {
            name: name.to_owned(),
            frontier: frontier.iter().map(|r| (r.shard, r.version)).collect(),
        });
    } else {
        for r in frontier {
            events.push(Event::Version { shard: r.shard, v: r.version });
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Concurrent commit storms against 1–8 shard masters. Whatever the
    /// shard count and batch window, the per-client histories must
    /// satisfy the cross-shard oracle.
    #[test]
    fn sharded_commit_storms_stay_consistent(
        shards in 1u32..=8,
        writers in 2u32..5,
        rounds in 1u64..4,
        window_sel in 0usize..3,
        salt in 0u32..1000,
    ) {
        let window = [0u64, 500, 50_000][window_sel];
        // Masters live on ranks 0..shards; writers on the slave ranks
        // after them.
        let size = shards.max(1) + writers;
        let cfg = KvsConfig { shards, batch_window_ns: window, ..KvsConfig::default() };
        let mut net = TestNet::new(size, 2, move |_| {
            vec![Box::new(KvsModule::with_config(cfg)) as Box<dyn CommsModule>]
        });
        let base = shards.max(1);
        let mut clients: Vec<KvsClient> =
            (0..writers).map(|w| KvsClient::new(Rank(base + w), 0)).collect();
        let mut histories: Vec<ClientHistory> = (0..writers)
            .map(|w| ClientHistory { client: format!("rank{}", base + w), events: Vec::new() })
            .collect();
        for round in 1..=rounds {
            // Stage + commit on every writer before pumping any reply, so
            // the round's commits are concurrent at the masters.
            for w in 0..writers {
                let rank = Rank(base + w);
                let c = &mut clients[w as usize];
                for key in writer_keys(salt, w) {
                    let put = c.put(&key, Value::Int(round as i64), 1);
                    net.client_send(rank, 0, put);
                    let ack = c.deliver(pump_one(&mut net, rank, 0));
                    prop_assert!(
                        matches!(ack, KvsDelivery::Reply { reply: KvsReply::Ack, .. }),
                        "{ack:?}"
                    );
                }
                let commit = c.commit(2);
                net.client_send(rank, 0, commit);
            }
            for w in 0..writers {
                let rank = Rank(base + w);
                let keys = writer_keys(salt, w);
                let m = pump_one(&mut net, rank, 0);
                match clients[w as usize].deliver(m) {
                    KvsDelivery::Reply {
                        reply: KvsReply::Frontier { shards: n, frontier }, ..
                    } => {
                        prop_assert_eq!(n, shards);
                        record_frontier(
                            &mut histories[w as usize].events,
                            &keys, round, shards, &frontier, None,
                        );
                    }
                    other => prop_assert!(false, "commit reply {other:?}"),
                }
            }
        }
        // Read-your-writes after the storm, each key read twice.
        for w in 0..writers {
            let rank = Rank(base + w);
            let c = &mut clients[w as usize];
            for key in writer_keys(salt, w) {
                for tag in [3, 4] {
                    let get = c.get(&key, tag);
                    net.client_send(rank, 0, get);
                    match c.deliver(pump_one(&mut net, rank, 0)) {
                        KvsDelivery::Reply { reply: KvsReply::Value(v), .. } => {
                            histories[w as usize].events.push(Event::Read {
                                key: key.clone(),
                                gen: v.as_int().map(|g| g as u64),
                            });
                        }
                        other => prop_assert!(false, "get reply {other:?}"),
                    }
                }
            }
        }
        // An independent observer on a slave rank interleaves per-shard
        // version probes with reads of every key (monotonic reads and
        // per-shard monotonic versions across clients).
        let mut obs = KvsClient::new(Rank(base), 9);
        let mut oh = ClientHistory { client: "observer".into(), events: Vec::new() };
        let mut seen: HashMap<u32, u64> = HashMap::new();
        for pass in 0..2u64 {
            for s in 0..shards {
                let probe = obs.get_version_shard(s, 10 + pass);
                net.client_send(Rank(base), 9, probe);
                match obs.deliver(pump_one(&mut net, Rank(base), 9)) {
                    KvsDelivery::Reply { reply: KvsReply::Version(at), .. } => {
                        prop_assert_eq!(at.shard, s);
                        oh.events.push(Event::Version { shard: s, v: at.version });
                        let e = seen.entry(s).or_insert(0);
                        *e = (*e).max(at.version);
                    }
                    other => prop_assert!(false, "probe {other:?}"),
                }
            }
            for w in 0..writers {
                for key in writer_keys(salt, w) {
                    let get = obs.get(&key, 20);
                    net.client_send(Rank(base), 9, get);
                    match obs.deliver(pump_one(&mut net, Rank(base), 9)) {
                        KvsDelivery::Reply { reply: KvsReply::Value(v), .. } => {
                            oh.events.push(Event::Read {
                                key: key.clone(),
                                gen: v.as_int().map(|g| g as u64),
                            });
                        }
                        other => prop_assert!(false, "observer get {other:?}"),
                    }
                }
            }
        }
        // wait_version on an already-observed per-shard version must
        // answer promptly with at least that version.
        for (s, v) in &seen {
            let wait = obs.wait_version_shard(*v, *s, 30);
            net.client_send(Rank(base), 9, wait);
            match obs.deliver(pump_one(&mut net, Rank(base), 9)) {
                KvsDelivery::Reply { reply: KvsReply::Version(at), .. } => {
                    let version = at.version;
                    prop_assert!(version >= *v, "wait_version({v}) answered {version}");
                    prop_assert_eq!(at.shard, *s);
                    oh.events.push(Event::Version { shard: *s, v: version });
                }
                other => prop_assert!(false, "wait_version {other:?}"),
            }
        }
        histories.push(oh);
        let violations = check(&histories);
        prop_assert!(violations.is_empty(), "{violations:?}");
        // The shard-0 master advertises the shard count.
        let mut probe = KvsClient::new(Rank(0), 5);
        let st = probe.stats(1);
        net.client_send(Rank(0), 5, st);
        match probe.deliver(pump_one(&mut net, Rank(0), 5)) {
            KvsDelivery::Reply { reply: KvsReply::Stats(s), .. } => {
                let advertised = s.get("shards").and_then(Value::as_uint);
                prop_assert_eq!(advertised, Some(u64::from(shards)));
            }
            other => prop_assert!(false, "stats {other:?}"),
        }
    }

    /// A collective fence across shards: all participants' contributions
    /// become visible atomically with one agreed per-shard frontier.
    #[test]
    fn cross_shard_fence_releases_consistent_frontier(
        shards in 1u32..=5,
        writers in 2u32..4,
        window_sel in 0usize..2,
        salt in 0u32..1000,
    ) {
        let window = [0u64, 50_000][window_sel];
        let size = shards.max(1) + writers;
        let cfg = KvsConfig { shards, batch_window_ns: window, ..KvsConfig::default() };
        let mut net = TestNet::new(size, 2, move |_| {
            vec![Box::new(KvsModule::with_config(cfg)) as Box<dyn CommsModule>]
        });
        let base = shards.max(1);
        let mut clients: Vec<KvsClient> =
            (0..writers).map(|w| KvsClient::new(Rank(base + w), 0)).collect();
        let mut histories: Vec<ClientHistory> = (0..writers)
            .map(|w| ClientHistory { client: format!("rank{}", base + w), events: Vec::new() })
            .collect();
        // Every writer stages its keys then joins the fence; no reply
        // arrives before the last participant joins.
        for w in 0..writers {
            let rank = Rank(base + w);
            let c = &mut clients[w as usize];
            for key in writer_keys(salt, w) {
                let put = c.put(&key, Value::Int(1), 1);
                net.client_send(rank, 0, put);
                let ack = c.deliver(pump_one(&mut net, rank, 0));
                prop_assert!(
                    matches!(ack, KvsDelivery::Reply { reply: KvsReply::Ack, .. }),
                    "{ack:?}"
                );
            }
            let fence = c.fence("sp.fence", u64::from(writers), 2);
            net.client_send(rank, 0, fence);
        }
        let mut release_frontier: Option<Vec<RootRef>> = None;
        for w in 0..writers {
            let rank = Rank(base + w);
            let keys = writer_keys(salt, w);
            let m = pump_one(&mut net, rank, 0);
            match clients[w as usize].deliver(m) {
                KvsDelivery::Reply { reply: KvsReply::Frontier { shards: n, frontier }, .. } => {
                    prop_assert_eq!(n, shards);
                    record_frontier(
                        &mut histories[w as usize].events,
                        &keys, 1, shards, &frontier, Some("sp.fence"),
                    );
                    release_frontier.get_or_insert(frontier);
                }
                other => prop_assert!(false, "fence reply {other:?}"),
            }
        }
        // After the release every contribution is readable from any rank:
        // an observer that has seen the release must find all fenced keys.
        let mut obs = KvsClient::new(Rank(base), 9);
        let mut oh = ClientHistory { client: "observer".into(), events: Vec::new() };
        if let Some(frontier) = &release_frontier {
            oh.events.push(Event::FenceDone {
                name: "sp.fence".into(),
                frontier: frontier.iter().map(|r| (r.shard, r.version)).collect(),
            });
        }
        for w in 0..writers {
            for key in writer_keys(salt, w) {
                let get = obs.get(&key, 20);
                net.client_send(Rank(base), 9, get);
                match obs.deliver(pump_one(&mut net, Rank(base), 9)) {
                    KvsDelivery::Reply { reply: KvsReply::Value(v), .. } => {
                        oh.events.push(Event::Read {
                            key: key.clone(),
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
    }
}
