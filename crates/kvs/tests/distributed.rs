//! Distributed KVS semantics over a full multi-broker session.
//!
//! These tests exercise the master/slave protocol end to end: write-back
//! puts, commit root-switching, collective fences (with the paper's
//! redundancy deduplication), fault-in through the cache chain, watches,
//! and the three §IV-B consistency properties.

#![allow(clippy::disallowed_methods, reason = "a test builds its topics directly")]

use flux_broker::testing::TestNet;
use flux_broker::CommsModule;
use flux_kvs::client::{KvsClient, KvsDelivery, KvsReply};
use flux_kvs::msg::RootRef;
use flux_kvs::{KvsConfig, KvsModule};
use flux_value::Value;
use flux_wire::{errnum, Message, Rank, Topic};

fn net(size: u32) -> TestNet {
    TestNet::new(size, 2, |_| vec![Box::new(KvsModule::new()) as Box<dyn CommsModule>])
}

/// Pumps timers until `rank`'s client `cid` has at least `want` messages
/// or nothing is left to do.
fn pump_for(net: &mut TestNet, rank: Rank, cid: u32, want: usize, sink: &mut Vec<Message>) {
    loop {
        sink.extend(net.take_client_msgs(rank, cid));
        if sink.len() >= want {
            return;
        }
        if !net.fire_next_timer() {
            sink.extend(net.take_client_msgs(rank, cid));
            return;
        }
    }
}

/// Sends one request (built by `f`) and decodes the single reply.
/// The version a one-shard session's commit or fence reply gives shard
/// 0, the one shard; `None` for any other reply.
fn committed(reply: &KvsReply) -> Option<u64> {
    match reply {
        KvsReply::Frontier { shards: 1, frontier } => match frontier.as_slice() {
            [at] if at.shard == 0 => Some(at.version),
            _ => None,
        },
        _ => None,
    }
}

fn rpc<F>(net: &mut TestNet, rank: Rank, cid: u32, c: &mut KvsClient, f: F) -> KvsReply
where
    F: FnOnce(&mut KvsClient) -> Message,
{
    let msg = f(c);
    net.client_send(rank, cid, msg);
    let mut msgs = Vec::new();
    pump_for(net, rank, cid, 1, &mut msgs);
    assert_eq!(msgs.len(), 1, "expected one reply, got {msgs:?}");
    match c.deliver(msgs.into_iter().next().unwrap()) {
        KvsDelivery::Reply { reply, .. } => reply,
        other => panic!("unexpected delivery {other:?}"),
    }
}

#[test]
fn put_commit_get_across_brokers() {
    let mut net = net(7);
    let mut w = KvsClient::new(Rank(5), 0);
    assert_eq!(rpc(&mut net, Rank(5), 0, &mut w, |w| w.put("a.b.c", Value::Int(42), 1)), KvsReply::Ack);
    let commit = rpc(&mut net, Rank(5), 0, &mut w, |w| w.commit(2));
    assert_eq!(committed(&commit), Some(1), "{commit:?}");

    // Another rank reads it (fault-in through the chain).
    let mut r = KvsClient::new(Rank(6), 0);
    assert_eq!(
        rpc(&mut net, Rank(6), 0, &mut r, |r| r.get("a.b.c", 3)),
        KvsReply::Value(Value::Int(42))
    );
}

#[test]
fn get_missing_key_is_enoent() {
    let mut net = net(3);
    let mut c = KvsClient::new(Rank(1), 0);
    assert_eq!(
        rpc(&mut net, Rank(1), 0, &mut c, |c| c.get("no.such.key", 1)),
        KvsReply::Err(errnum::ENOENT)
    );
}

#[test]
fn read_your_writes_at_committing_broker() {
    // The commit response applies the root locally before the caller is
    // answered: an immediate local get must see the write even though the
    // setroot event may not have arrived yet.
    let mut net = net(15);
    let mut c = KvsClient::new(Rank(11), 0);
    let _ = rpc(&mut net, Rank(11), 0, &mut c, |c| c.put("ryw.key", Value::from("mine"), 1));
    let commit = rpc(&mut net, Rank(11), 0, &mut c, |c| c.commit(2));
    assert_eq!(committed(&commit), Some(1), "{commit:?}");
    assert_eq!(
        rpc(&mut net, Rank(11), 0, &mut c, |c| c.get("ryw.key", 3)),
        KvsReply::Value(Value::from("mine"))
    );
}

#[test]
fn causal_consistency_via_wait_version() {
    // A commits, tells B the version (out of band), B waits for it and
    // then must see A's value.
    let mut net = net(15);
    let mut a = KvsClient::new(Rank(7), 0);
    let _ = rpc(&mut net, Rank(7), 0, &mut a, |a| a.put("causal.x", Value::Int(9), 1));
    let commit = rpc(&mut net, Rank(7), 0, &mut a, |a| a.commit(2));
    let version = committed(&commit).expect("commit failed");

    let mut b = KvsClient::new(Rank(14), 0);
    let KvsReply::Version(RootRef { version: seen, .. }) =
        rpc(&mut net, Rank(14), 0, &mut b, |b| b.wait_version(version, 3))
    else {
        panic!("wait failed")
    };
    assert!(seen >= version);
    assert_eq!(
        rpc(&mut net, Rank(14), 0, &mut b, |b| b.get("causal.x", 4)),
        KvsReply::Value(Value::Int(9))
    );
}

#[test]
fn monotonic_versions_across_commits() {
    let mut net = net(7);
    let mut c = KvsClient::new(Rank(3), 0);
    let mut last = 0;
    for i in 0..5 {
        let _ = rpc(&mut net, Rank(3), 0, &mut c, |c| c.put("mono.k", Value::Int(i), 1));
        let commit = rpc(&mut net, Rank(3), 0, &mut c, |c| c.commit(2));
        let version = committed(&commit).expect("commit failed");
        assert!(version > last, "version must advance: {version} after {last}");
        last = version;
    }
    // get_version at a third-party rank is <= master's but never regresses.
    let mut o = KvsClient::new(Rank(6), 0);
    let KvsReply::Version(RootRef { version: v1, .. }) =
        rpc(&mut net, Rank(6), 0, &mut o, |o| o.get_version(9))
    else {
        panic!()
    };
    let KvsReply::Version(RootRef { version: v2, .. }) =
        rpc(&mut net, Rank(6), 0, &mut o, |o| o.get_version(10))
    else {
        panic!()
    };
    assert!(v2 >= v1);
}

#[test]
fn fence_collects_all_participants() {
    // One producer client on every broker; each puts a unique key then
    // fences. After the fence completes everyone sees everyone's key.
    let size = 7u32;
    let mut net = net(size);
    let mut clients: Vec<KvsClient> =
        (0..size).map(|r| KvsClient::new(Rank(r), 0)).collect();

    for r in 0..size {
        let put = clients[r as usize].put(&format!("fence.k{r}"), Value::Int(i64::from(r)), 1);
        net.client_send(Rank(r), 0, put);
    }
    // Collect put acks.
    for r in 0..size {
        let msgs = net.take_client_msgs(Rank(r), 0);
        assert_eq!(msgs.len(), 1);
    }
    // Everyone fences.
    for r in 0..size {
        let f = clients[r as usize].fence("boot", u64::from(size), 2);
        net.client_send(Rank(r), 0, f);
    }
    // Pump timers until all fences complete.
    let mut done = vec![Vec::new(); size as usize];
    for _ in 0..1000 {
        for r in 0..size {
            done[r as usize].extend(net.take_client_msgs(Rank(r), 0));
        }
        if done.iter().all(|v| !v.is_empty()) {
            break;
        }
        assert!(net.fire_next_timer(), "fence never completed: {done:?}");
    }
    for r in 0..size {
        assert_eq!(done[r as usize].len(), 1, "rank {r}");
        let reply = match clients[r as usize].deliver(done[r as usize].remove(0)) {
            KvsDelivery::Reply { reply, .. } => reply,
            other => panic!("{other:?}"),
        };
        assert_eq!(committed(&reply), Some(1), "{reply:?}");
    }
    // All keys visible everywhere.
    for r in 0..size {
        for k in 0..size {
            let key = format!("fence.k{k}");
            let reply =
                rpc(&mut net, Rank(r), 0, &mut clients[r as usize], |c| c.get(&key, 7));
            assert_eq!(reply, KvsReply::Value(Value::Int(i64::from(k))), "rank {r} key {k}");
        }
    }
}

#[test]
fn fence_deduplicates_redundant_values() {
    // Redundant values must collapse to ONE object at the master, while
    // unique values store one object per producer (Fig. 3's mechanism).
    let run = |redundant: bool| -> usize {
        let size = 7u32;
        let mut net = net(size);
        let mut clients: Vec<KvsClient> =
            (0..size).map(|r| KvsClient::new(Rank(r), 0)).collect();
        for r in 0..size {
            let v = if redundant {
                Value::from("same-value-everywhere")
            } else {
                Value::from(format!("value-{r}"))
            };
            let put = clients[r as usize].put(&format!("red.k{r}"), v, 1);
            net.client_send(Rank(r), 0, put);
            let _ = net.take_client_msgs(Rank(r), 0);
            let f = clients[r as usize].fence("f", u64::from(size), 2);
            net.client_send(Rank(r), 0, f);
        }
        for _ in 0..1000 {
            let done: Vec<Message> = net.take_client_msgs(Rank(0), 0);
            if !done.is_empty() {
                break;
            }
            assert!(net.fire_next_timer());
        }
        // Master cache statistics: count of resident objects.
        let mut probe = KvsClient::new(Rank(0), 1);
        let KvsReply::Stats(stats) = rpc(&mut net, Rank(0), 1, &mut probe, |probe| probe.stats(9))
        else {
            panic!("stats failed")
        };
        stats.get("entries").and_then(Value::as_int).unwrap() as usize
    };
    let unique_entries = run(false);
    let redundant_entries = run(true);
    // unique: 7 value objects; redundant: 1 value object (dirs identical).
    assert_eq!(unique_entries - redundant_entries, 6);
}

#[test]
fn fence_with_zero_nprocs_is_einval() {
    // nprocs = 0 can never be satisfied; it must fail fast, not hang.
    let mut net = net(3);
    let mut c = KvsClient::new(Rank(2), 0);
    assert_eq!(
        rpc(&mut net, Rank(2), 0, &mut c, |c| c.fence("zero", 0, 1)),
        KvsReply::Err(errnum::EINVAL)
    );
}

#[test]
fn mismatched_fence_nprocs_is_einval() {
    // Two clients on one broker disagree on the participant count: the
    // first claim stands, the contradicting one is rejected.
    let mut net = net(3);
    let mut a = KvsClient::new(Rank(1), 0);
    let f = a.fence("mm", 2, 1);
    net.client_send(Rank(1), 0, f);
    let mut b = KvsClient::new(Rank(1), 1);
    assert_eq!(
        rpc(&mut net, Rank(1), 1, &mut b, |b| b.fence("mm", 3, 1)),
        KvsReply::Err(errnum::EINVAL)
    );
}

#[test]
fn duplicate_fence_contribution_does_not_double_count() {
    // nprocs = 2 but only ONE real participant, which fences twice. The
    // duplicate is rejected with EINVAL and must NOT count: the fence
    // completes only when the second genuine participant arrives.
    let mut net = net(3);
    let mut a = KvsClient::new(Rank(1), 0);
    let first = a.fence("dup", 2, 1);
    net.client_send(Rank(1), 0, first);
    let dup = a.fence("dup", 2, 2);
    net.client_send(Rank(1), 0, dup);

    // Only the duplicate is answered (immediately, with EINVAL).
    let mut msgs = Vec::new();
    pump_for(&mut net, Rank(1), 0, 1, &mut msgs);
    assert_eq!(msgs.len(), 1, "only the duplicate may be answered: {msgs:?}");
    match a.deliver(msgs.remove(0)) {
        KvsDelivery::Reply { reply, .. } => assert_eq!(reply, KvsReply::Err(errnum::EINVAL)),
        other => panic!("{other:?}"),
    }
    // Drain pending timers: the first fence must still be parked.
    for _ in 0..100 {
        if !net.fire_next_timer() {
            break;
        }
    }
    assert!(
        net.take_client_msgs(Rank(1), 0).is_empty(),
        "fence completed with one participant missing"
    );

    // The real second participant completes it for both.
    let mut b = KvsClient::new(Rank(2), 0);
    let f = b.fence("dup", 2, 1);
    net.client_send(Rank(2), 0, f);
    let (mut am, mut bm) = (Vec::new(), Vec::new());
    pump_for(&mut net, Rank(1), 0, 1, &mut am);
    pump_for(&mut net, Rank(2), 0, 1, &mut bm);
    for (client, mut got) in [(&mut a, am), (&mut b, bm)] {
        assert_eq!(got.len(), 1);
        match client.deliver(got.remove(0)) {
            KvsDelivery::Reply { reply, .. } => {
                assert!(matches!(reply, KvsReply::Frontier { .. }), "{reply:?}");
            }
            other => panic!("{other:?}"),
        }
    }
}

#[test]
fn fence_push_wrong_master_einval_fails_the_fence() {
    // A shard master that rejects a fence push with EINVAL — here a
    // rolling-restart misconfiguration: rank 1 (master of shard 1)
    // believes the store is unsharded — is a *permanent* failure.
    // Re-sending the same part at the same rank can never succeed, so
    // the fence must fail fast with EINVAL instead of spinning on the
    // heartbeat re-send pump forever.
    let sharded = KvsConfig { shards: 2, ..KvsConfig::default() };
    let unsharded = KvsConfig::default();
    let mut net = TestNet::new(6, 2, move |rank| {
        let cfg = if rank == Rank(1) { unsharded } else { sharded };
        vec![Box::new(KvsModule::with_config(cfg)) as Box<dyn CommsModule>]
    });
    // The writer sits at rank 5 (TBON path 5 → 2 → 0) so its traffic
    // never routes through the misconfigured rank; only the root
    // coordinator's rank-addressed fence push reaches rank 1.
    let mut c = KvsClient::new(Rank(5), 0);
    let key = (0..64)
        .map(|j| format!("fe.wrong.k{j}"))
        .find(|k| flux_kvs::shard::shard_of_key(k, 2) == Ok(1))
        .expect("some candidate key lands on shard 1");
    assert_eq!(
        rpc(&mut net, Rank(5), 0, &mut c, |c| c.put(&key, Value::Int(1), 1)),
        KvsReply::Ack
    );
    // One participant: the fence releases count-wise immediately and the
    // coordinator pushes the staged shard-1 part to rank 1.
    let fence = c.fence("fe.wrong", 1, 1);
    net.client_send(Rank(5), 0, fence);
    let mut reply = None;
    for _ in 0..2000 {
        if let Some(m) = net.take_client_msgs(Rank(5), 0).pop() {
            reply = Some(m);
            break;
        }
        if !net.fire_next_timer() {
            break;
        }
    }
    let m = reply.expect("fence must be answered, not retried forever");
    match c.deliver(m) {
        KvsDelivery::Reply { reply, .. } => assert_eq!(reply, KvsReply::Err(errnum::EINVAL)),
        other => panic!("unexpected delivery {other:?}"),
    }
}

#[test]
fn watch_streams_changes_to_remote_rank() {
    let mut net = net(7);
    let mut watcher = KvsClient::new(Rank(6), 0);
    let (wreq, _wid) = watcher.watch("w.key", 1);
    net.client_send(Rank(6), 0, wreq);
    // Initial snapshot: key missing -> null.
    let mut msgs = net.take_client_msgs(Rank(6), 0);
    assert_eq!(msgs.len(), 1);
    match watcher.deliver(msgs.remove(0)) {
        KvsDelivery::Reply { reply: KvsReply::WatchUpdate { key, value }, .. } => {
            assert_eq!(key, "w.key");
            assert_eq!(value, Value::Null);
        }
        other => panic!("{other:?}"),
    }
    // A writer elsewhere commits twice.
    let mut writer = KvsClient::new(Rank(3), 0);
    for (i, v) in [(1i64, "first"), (2, "second")] {
        let _ = rpc(&mut net, Rank(3), 0, &mut writer, |writer| writer.put("w.key", Value::from(v), 1));
        let commit = rpc(&mut net, Rank(3), 0, &mut writer, |writer| writer.commit(2));
        assert_eq!(committed(&commit), Some(i as u64), "{commit:?}");
    }
    // The watcher sees both updates, in order.
    let mut updates = Vec::new();
    pump_for(&mut net, Rank(6), 0, 2, &mut updates);
    let texts: Vec<String> = updates
        .into_iter()
        .map(|m| match watcher.deliver(m) {
            KvsDelivery::Reply { reply: KvsReply::WatchUpdate { value, .. }, .. } => {
                value.as_str().unwrap_or("?").to_owned()
            }
            other => panic!("{other:?}"),
        })
        .collect();
    assert_eq!(texts, ["first", "second"]);
}

#[test]
fn directory_listing_and_eisdir() {
    let mut net = net(3);
    let mut c = KvsClient::new(Rank(2), 0);
    for (k, v) in [("d.x", 1i64), ("d.y", 2), ("d.sub.z", 3)] {
        let _ = rpc(&mut net, Rank(2), 0, &mut c, |c| c.put(k, Value::Int(v), 1));
    }
    let _ = rpc(&mut net, Rank(2), 0, &mut c, |c| c.commit(2));
    // Plain get of a directory fails with EISDIR.
    assert_eq!(rpc(&mut net, Rank(2), 0, &mut c, |c| c.get("d", 3)), KvsReply::Err(errnum::EISDIR));
    // Directory listing names all entries.
    let KvsReply::Dir(listing) = rpc(&mut net, Rank(2), 0, &mut c, |c| c.get_dir("d", 4)) else {
        panic!("dir listing failed")
    };
    let names: Vec<&String> = listing.as_object().unwrap().keys().collect();
    assert_eq!(names, ["sub", "x", "y"]);
    // get_dir of a value fails with ENOTDIR.
    assert_eq!(
        rpc(&mut net, Rank(2), 0, &mut c, |c| c.get_dir("d.x", 5)),
        KvsReply::Err(errnum::ENOTDIR)
    );
}

#[test]
fn unlink_removes_key_everywhere() {
    let mut net = net(7);
    let mut c = KvsClient::new(Rank(4), 0);
    let _ = rpc(&mut net, Rank(4), 0, &mut c, |c| c.put("u.k", Value::Int(5), 1));
    let _ = rpc(&mut net, Rank(4), 0, &mut c, |c| c.commit(2));
    let _ = rpc(&mut net, Rank(4), 0, &mut c, |c| c.unlink("u.k", 3));
    let _ = rpc(&mut net, Rank(4), 0, &mut c, |c| c.commit(4));
    let mut r = KvsClient::new(Rank(5), 0);
    assert_eq!(
        rpc(&mut net, Rank(5), 0, &mut r, |r| r.get("u.k", 5)),
        KvsReply::Err(errnum::ENOENT)
    );
}

#[test]
fn interior_caches_populate_on_read_path() {
    // A leaf read faults objects through the interior broker on its path:
    // afterwards, the interior cache holds them too (Fig. 4 mechanism).
    let mut net = net(7);
    let mut w = KvsClient::new(Rank(0), 0);
    let _ = rpc(&mut net, Rank(0), 0, &mut w, |w| w.put("deep.key", Value::from("x"), 1));
    let _ = rpc(&mut net, Rank(0), 0, &mut w, |w| w.commit(2));

    // Rank 5's path to the root passes rank 2.
    let mut probe = KvsClient::new(Rank(2), 1);
    let KvsReply::Stats(before) = rpc(&mut net, Rank(2), 1, &mut probe, |probe| probe.stats(3)) else {
        panic!()
    };
    let mut r = KvsClient::new(Rank(5), 0);
    assert_eq!(
        rpc(&mut net, Rank(5), 0, &mut r, |r| r.get("deep.key", 4)),
        KvsReply::Value(Value::from("x"))
    );
    let KvsReply::Stats(after) = rpc(&mut net, Rank(2), 1, &mut probe, |probe| probe.stats(5)) else {
        panic!()
    };
    let before_n = before.get("entries").and_then(Value::as_int).unwrap();
    let after_n = after.get("entries").and_then(Value::as_int).unwrap();
    assert!(after_n > before_n, "interior cache grew: {before_n} -> {after_n}");
}

#[test]
fn slave_cache_expires_idle_entries_on_heartbeat() {
    let mut net = TestNet::new(3, 2, |_| {
        vec![Box::new(KvsModule::with_config(KvsConfig { expiry_epochs: 2, ..KvsConfig::default() }))
            as Box<dyn CommsModule>]
    });
    let mut c = KvsClient::new(Rank(2), 0);
    let _ = rpc(&mut net, Rank(2), 0, &mut c, |c| c.put("e.k", Value::from("data"), 1));
    let _ = rpc(&mut net, Rank(2), 0, &mut c, |c| c.commit(2));
    let _ = rpc(&mut net, Rank(2), 0, &mut c, |c| c.get("e.k", 3));
    let mut entries = |net: &mut TestNet, tag| {
        let KvsReply::Stats(s) = rpc(net, Rank(2), 0, &mut c, |c| c.stats(tag)) else { panic!() };
        let count = |key| s.get(key).and_then(Value::as_int).unwrap();
        (count("entries"), count("expired"))
    };
    let (before_n, _) = entries(&mut net, 4);
    // Heartbeats (injected as root events) advance cache epochs. An
    // entry idle for exactly `expiry_epochs` is still held.
    heartbeats(&mut net, 1..=2);
    assert_eq!(entries(&mut net, 5), (before_n, 0), "nothing expires by epoch 2");
    heartbeats(&mut net, 3..=4);
    let (after_n, expired) = entries(&mut net, 6);
    assert!(after_n < before_n, "cache shrank by epoch 4: {before_n} -> {after_n}");
    assert!(expired > 0);
    // Expired data faults back in on demand.
    assert_eq!(
        rpc(&mut net, Rank(2), 0, &mut c, |c| c.get("e.k", 7)),
        KvsReply::Value(Value::from("data"))
    );
}

#[test]
fn concurrent_commits_from_many_ranks_all_land() {
    let size = 15u32;
    let mut net = net(size);
    let mut clients: Vec<KvsClient> =
        (0..size).map(|r| KvsClient::new(Rank(r), 0)).collect();
    // Everyone puts and commits without waiting for each other.
    for r in 0..size {
        let put = clients[r as usize].put(&format!("cc.k{r}"), Value::Int(i64::from(r)), 1);
        net.client_send(Rank(r), 0, put);
        let commit = clients[r as usize].commit(2);
        net.client_send(Rank(r), 0, commit);
    }
    // Concurrent pushes park in the master's batch window; pump timers
    // until every rank has its put ack + commit reply.
    for r in 0..size {
        let mut msgs = Vec::new();
        pump_for(&mut net, Rank(r), 0, 2, &mut msgs);
        assert_eq!(msgs.len(), 2, "rank {r}: put ack + commit reply");
    }
    // All keys visible at an arbitrary rank.
    let mut reader = KvsClient::new(Rank(9), 1);
    for k in 0..size {
        let key = format!("cc.k{k}");
        assert_eq!(
            rpc(&mut net, Rank(9), 1, &mut reader, |c| c.get(&key, 3)),
            KvsReply::Value(Value::Int(i64::from(k)))
        );
    }
}

#[test]
fn concurrent_pushes_coalesce_into_one_apply() {
    let size = 9u32;
    let mut net = net(size);
    let mut clients: Vec<KvsClient> =
        (0..size).map(|r| KvsClient::new(Rank(r), 0)).collect();
    // Ranks 1..size commit concurrently (rank 0's commits are local to the
    // master and never travel as kvs.push).
    for r in 1..size {
        let put = clients[r as usize].put(&format!("co.k{r}"), Value::Int(i64::from(r)), 1);
        net.client_send(Rank(r), 0, put);
        let commit = clients[r as usize].commit(2);
        net.client_send(Rank(r), 0, commit);
    }
    for r in 1..size {
        let mut msgs = Vec::new();
        pump_for(&mut net, Rank(r), 0, 2, &mut msgs);
        assert_eq!(msgs.len(), 2, "rank {r}: put ack + commit reply");
    }
    // All eight pushes parked inside one batch window: one hash-tree
    // walk, one version bump, one setroot broadcast.
    let mut m = KvsClient::new(Rank(0), 0);
    let KvsReply::Stats(s) = rpc(&mut net, Rank(0), 0, &mut m, |c| c.stats(1)) else {
        panic!()
    };
    assert_eq!(s.get("pushes_batched").and_then(Value::as_int).unwrap(), 8);
    let commits = s.get("commits").and_then(Value::as_int).unwrap();
    assert!(commits < 8, "coalesced: {commits} applies for 8 pushes");
    assert_eq!(s.get("version").and_then(Value::as_int).unwrap(), commits);
    // Coalescing loses no data.
    let mut reader = KvsClient::new(Rank(5), 1);
    for k in 1..size {
        let key = format!("co.k{k}");
        assert_eq!(
            rpc(&mut net, Rank(5), 1, &mut reader, |c| c.get(&key, 3)),
            KvsReply::Value(Value::Int(i64::from(k)))
        );
    }
}

#[test]
fn batch_max_flushes_without_waiting_for_the_window_timer() {
    let mut net = TestNet::new(5, 2, |_| {
        vec![Box::new(KvsModule::with_config(KvsConfig {
            batch_max: 2,
            ..KvsConfig::default()
        })) as Box<dyn CommsModule>]
    });
    let mut a = KvsClient::new(Rank(1), 0);
    let mut b = KvsClient::new(Rank(2), 0);
    net.client_send(Rank(1), 0, a.put("bm.a", Value::Int(1), 1));
    net.client_send(Rank(1), 0, a.commit(2));
    net.client_send(Rank(2), 0, b.put("bm.b", Value::Int(2), 1));
    net.client_send(Rank(2), 0, b.commit(2));
    // The second push hit batch_max: both commit replies must already be
    // delivered with no timer fired.
    assert_eq!(net.take_client_msgs(Rank(1), 0).len(), 2, "rank 1 done sans timer");
    assert_eq!(net.take_client_msgs(Rank(2), 0).len(), 2, "rank 2 done sans timer");
}

#[test]
fn a_get_after_a_new_commit_returns_the_new_value() {
    let mut net = net(5);
    let mut w = KvsClient::new(Rank(3), 0);
    let _ = rpc(&mut net, Rank(3), 0, &mut w, |c| c.put("lm.k", Value::Int(1), 1));
    let _ = rpc(&mut net, Rank(3), 0, &mut w, |c| c.commit(2));
    let mut r = KvsClient::new(Rank(4), 0);
    // First get faults the path in; second walks the warm cache.
    assert_eq!(
        rpc(&mut net, Rank(4), 0, &mut r, |c| c.get("lm.k", 3)),
        KvsReply::Value(Value::Int(1))
    );
    assert_eq!(
        rpc(&mut net, Rank(4), 0, &mut r, |c| c.get("lm.k", 4)),
        KvsReply::Value(Value::Int(1))
    );
    // A new commit switches the root: the warm reader must not be
    // served the old object.
    let _ = rpc(&mut net, Rank(3), 0, &mut w, |c| c.put("lm.k", Value::Int(2), 1));
    let _ = rpc(&mut net, Rank(3), 0, &mut w, |c| c.commit(6));
    assert_eq!(
        rpc(&mut net, Rank(4), 0, &mut r, |c| c.get("lm.k", 7)),
        KvsReply::Value(Value::Int(2)),
        "a get after the root switch reads the new tree"
    );
}

#[test]
fn watch_on_directory_fires_for_nested_changes() {
    // Paper §IV-B: "Due to our hash-tree organization, a watched directory
    // changes if keys under it at any path depth change."
    let mut net = net(7);
    let mut watcher = KvsClient::new(Rank(4), 0);
    let (wreq, _wid) = watcher.watch("app", 1);
    net.client_send(Rank(4), 0, wreq);
    let mut snap = net.take_client_msgs(Rank(4), 0);
    assert_eq!(snap.len(), 1, "initial snapshot");
    match watcher.deliver(snap.remove(0)) {
        KvsDelivery::Reply { reply: KvsReply::WatchUpdate { value, .. }, .. } => {
            assert_eq!(value, Value::Null, "directory does not exist yet");
        }
        other => panic!("{other:?}"),
    }
    // A writer creates a deeply nested key under the watched directory.
    let mut writer = KvsClient::new(Rank(2), 0);
    let _ = rpc(&mut net, Rank(2), 0, &mut writer, |w| {
        w.put("app.cfg.deep.leaf", Value::Int(1), 1)
    });
    let _ = rpc(&mut net, Rank(2), 0, &mut writer, |w| w.commit(2));
    let mut upd = Vec::new();
    pump_for(&mut net, Rank(4), 0, 1, &mut upd);
    assert_eq!(upd.len(), 1, "nested change fires the directory watch");
    let first_listing = match watcher.deliver(upd.remove(0)) {
        KvsDelivery::Reply { reply: KvsReply::WatchUpdate { value, .. }, .. } => value,
        other => panic!("{other:?}"),
    };
    assert!(first_listing.get("cfg").is_some(), "{first_listing}");
    // Changing the nested value changes the cascading hashes and fires
    // again with a different listing.
    let _ = rpc(&mut net, Rank(2), 0, &mut writer, |w| {
        w.put("app.cfg.deep.leaf", Value::Int(2), 3)
    });
    let _ = rpc(&mut net, Rank(2), 0, &mut writer, |w| w.commit(4));
    let mut upd = Vec::new();
    pump_for(&mut net, Rank(4), 0, 1, &mut upd);
    assert_eq!(upd.len(), 1);
    let second_listing = match watcher.deliver(upd.remove(0)) {
        KvsDelivery::Reply { reply: KvsReply::WatchUpdate { value, .. }, .. } => value,
        other => panic!("{other:?}"),
    };
    assert_ne!(second_listing, first_listing, "hashes cascade upward");
}

/// Drives `hb` epochs from the root, as the live module would.
fn heartbeats(net: &mut TestNet, epochs: std::ops::RangeInclusive<u64>) {
    for epoch in epochs {
        net.publish_from_root(
            Topic::from_static("hb"),
            Value::from_pairs([("epoch", Value::from(epoch as i64))]),
        );
    }
}

fn two_shard_net(size: u32) -> TestNet {
    let cfg = KvsConfig { shards: 2, ..KvsConfig::default() };
    TestNet::new(size, 2, move |_| vec![Box::new(KvsModule::with_config(cfg)) as Box<dyn CommsModule>])
}

#[test]
fn commit_across_a_shard_master_blackout_is_answered_wherever_it_was_issued() {
    // The commit is coordinated on the committer's own broker, so that is
    // where the part lost to the blackout must be re-sent from — on the
    // root and on a leaf alike.
    for issuer in [Rank(0), Rank(5)] {
        let mut net = two_shard_net(6);
        let mut c = KvsClient::new(issuer, 0);
        let key = flux_kvs::shard::key_on_shard("blackout.k", 1, 2);
        assert_eq!(rpc(&mut net, issuer, 0, &mut c, |c| c.put(&key, Value::Int(1), 1)), KvsReply::Ack);
        net.kill(Rank(1));
        let commit = c.commit(2);
        net.client_send(issuer, 0, commit);
        assert!(net.take_client_msgs(issuer, 0).is_empty(), "shard 1's master is down");
        net.revive(Rank(1));
        heartbeats(&mut net, 1..=10);
        let mut msgs = Vec::new();
        pump_for(&mut net, issuer, 0, 1, &mut msgs);
        assert_eq!(msgs.len(), 1, "commit issued at {issuer:?} must be answered after the restart");
        match c.deliver(msgs.remove(0)) {
            KvsDelivery::Reply { reply: KvsReply::Frontier { shards: 2, frontier }, .. } => {
                let at: Vec<_> = frontier.iter().map(|r| (r.shard, r.version)).collect();
                assert_eq!(at, [(1, 1)]);
            }
            other => panic!("unexpected delivery {other:?}"),
        }
        assert_eq!(rpc(&mut net, issuer, 0, &mut c, |c| c.get(&key, 3)), KvsReply::Value(Value::Int(1)));
    }
}

#[test]
fn a_commit_in_flight_for_less_than_a_heartbeat_is_sent_and_applied_once() {
    // The push is parked in shard 1's batch window — healthy, merely in
    // flight — when a heartbeat arrives. Re-sending it then would apply
    // the commit twice (two version bumps once the first copy's window
    // has closed); it must be left alone for one full period.
    for issuer in [Rank(0), Rank(5)] {
        let mut net = two_shard_net(6);
        let mut c = KvsClient::new(issuer, 0);
        let key = flux_kvs::shard::key_on_shard("inflight.k", 1, 2);
        assert_eq!(rpc(&mut net, issuer, 0, &mut c, |c| c.put(&key, Value::Int(1), 1)), KvsReply::Ack);
        let commit = c.commit(2);
        net.client_send(issuer, 0, commit);
        heartbeats(&mut net, 1..=1);
        let mut msgs = Vec::new();
        pump_for(&mut net, issuer, 0, 1, &mut msgs);
        assert_eq!(msgs.len(), 1);
        let mut probe = KvsClient::new(Rank(1), 1);
        let KvsReply::Stats(s) = rpc(&mut net, Rank(1), 1, &mut probe, |p| p.stats(1)) else { panic!() };
        let stat = |k: &str| s.get(k).and_then(Value::as_int);
        assert_eq!((stat("pushes_batched"), stat("commits")), (Some(1), Some(1)), "issued at {issuer:?}: {s:?}");
        let KvsReply::Version(at) =
            rpc(&mut net, Rank(1), 1, &mut probe, |p| p.get_version_shard(1, 2))
        else {
            panic!()
        };
        assert_eq!((at.shard, at.version), (1, 1));
    }
}

/// Seven brokers with the KVS loaded at tree depth ≤ 1 only (paper
/// §IV-A): ranks 3 and 4 have none, and their clients are served by the
/// instance on their parent, rank 1.
fn shallow_net() -> TestNet {
    TestNet::new(7, 2, |rank| match rank.0 {
        0..=2 => vec![Box::new(KvsModule::new()) as Box<dyn CommsModule>],
        _ => Vec::new(),
    })
}

#[test]
fn an_instance_serving_two_brokers_clients_keeps_them_apart() {
    // Client 0 of rank 3 and client 0 of rank 4 are two processes.
    let mut net = shallow_net();
    let (ra, rb) = (Rank(3), Rank(4));
    let (mut a, mut b) = (KvsClient::new(ra, 0), KvsClient::new(rb, 0));
    assert_eq!(rpc(&mut net, ra, 0, &mut a, |a| a.put("pl.a", Value::Int(3), 1)), KvsReply::Ack);
    assert_eq!(rpc(&mut net, rb, 0, &mut b, |b| b.put("pl.b", Value::Int(4), 1)), KvsReply::Ack);
    // One process's commit publishes its own write-back set only.
    let commit = rpc(&mut net, ra, 0, &mut a, |a| a.commit(2));
    assert_eq!(committed(&commit), Some(1), "{commit:?}");
    assert_eq!(
        rpc(&mut net, ra, 0, &mut a, |a| a.get("pl.b", 3)),
        KvsReply::Err(errnum::ENOENT),
        "rank 4's put is still uncommitted"
    );
    // Both count as fence participants.
    let fence = a.fence("pl", 2, 4);
    net.client_send(ra, 0, fence);
    let fence = b.fence("pl", 2, 4);
    net.client_send(rb, 0, fence);
    for (rank, c) in [(ra, &mut a), (rb, &mut b)] {
        let mut done = Vec::new();
        pump_for(&mut net, rank, 0, 1, &mut done);
        assert_eq!(done.len(), 1, "{rank:?}'s fence completes");
        match c.deliver(done.remove(0)) {
            KvsDelivery::Reply { reply, .. } if committed(&reply) == Some(2) => {}
            other => panic!("{rank:?}: {other:?}"),
        }
    }
    assert_eq!(rpc(&mut net, ra, 0, &mut a, |a| a.get("pl.b", 5)), KvsReply::Value(Value::Int(4)));
    assert_eq!(rpc(&mut net, rb, 0, &mut b, |b| b.get("pl.a", 5)), KvsReply::Value(Value::Int(3)));
}

#[test]
fn unwatch_cancels_only_the_watch_of_the_client_that_asked() {
    let mut net = shallow_net();
    let (ra, rb) = (Rank(3), Rank(4));
    let (mut a, mut b) = (KvsClient::new(ra, 0), KvsClient::new(rb, 0));
    let (watch_a, id_a) = a.watch("pl.w", 1);
    net.client_send(ra, 0, watch_a);
    let (watch_b, _) = b.watch("pl.w", 1);
    net.client_send(rb, 0, watch_b);
    assert_eq!(net.take_client_msgs(ra, 0).len(), 1, "rank 3's initial snapshot");
    assert_eq!(net.take_client_msgs(rb, 0).len(), 1, "rank 4's initial snapshot");
    assert_eq!(rpc(&mut net, ra, 0, &mut a, |a| a.unwatch("pl.w", id_a, 2)), KvsReply::Ack);
    let mut w = KvsClient::new(Rank(0), 0);
    let _ = rpc(&mut net, Rank(0), 0, &mut w, |w| w.put("pl.w", Value::Int(1), 1));
    let _ = rpc(&mut net, Rank(0), 0, &mut w, |w| w.commit(2));
    let mut updates = Vec::new();
    pump_for(&mut net, rb, 0, 1, &mut updates);
    assert_eq!(updates.len(), 1, "rank 4's client 0 is still watching");
    match b.deliver(updates.remove(0)) {
        KvsDelivery::Reply { reply: KvsReply::WatchUpdate { value, .. }, .. } => {
            assert_eq!(value, Value::Int(1));
        }
        other => panic!("{other:?}"),
    }
    assert!(net.take_client_msgs(ra, 0).is_empty(), "rank 3's client 0 cancelled");
}

/// One `kvs.load` reply faulted through two tiers of a simulated
/// session: the interior broker and the leaf below it cache the object
/// the payload carries, decoded once, so a get at either is answered
/// with the one get reply built from it. A later child of the interior
/// broker is answered with that same load payload, not one rebuilt from
/// the bytes, so its get reply is the same payload too.
#[test]
fn a_load_reply_through_several_tiers_is_one_held_object() {
    use flux_rt::script::{Op, ScriptClient};
    use flux_rt::sim::SimSession;
    use flux_sim::NetParams;

    let mut session = SimSession::new(7, 2, NetParams::default(), |_| {
        vec![Box::new(KvsModule::new()) as Box<dyn CommsModule>]
    });
    let val = Value::from("x".repeat(64));
    let write = vec![Op::Put { key: "a.b".into(), val: val.clone() }, Op::Commit];
    let writer = ScriptClient::spawn(&mut session, Rank(0), write);
    session.run_until_quiet(None).expect("unbudgeted");
    assert!(writer.borrow().finished);
    // Rank 3 faults the value in through rank 1, then rank 1 and its
    // other child, rank 4, read it.
    let replies: Vec<_> = [3, 1, 4]
        .map(|rank| {
            let ops = vec![Op::Get { key: "a.b".into() }];
            let get = ScriptClient::spawn(&mut session, Rank(rank), ops);
            session.run_until_quiet(None).expect("unbudgeted");
            let out = get.borrow();
            assert_eq!(out.op_err, [0], "rank {rank}");
            out.replies[0].clone()
        })
        .into();
    assert_eq!(replies[0].get("v"), Some(&val));
    for (rank, reply) in [1, 4].iter().zip(&replies[1..]) {
        assert!(std::ptr::eq(reply.value(), replies[0].value()), "rank {rank}: one get reply");
    }
}
