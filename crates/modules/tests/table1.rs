//! Table I end-to-end: every prototyped comms module exercised over a
//! full session (the `kvs` column is covered in flux-kvs's own tests).

#![allow(clippy::disallowed_methods, reason = "a test builds its topics directly")]

use flux_broker::client::ClientCore;
use flux_broker::testing::TestNet;
use flux_modules::standard_modules;
use flux_value::Value;
use flux_wire::{errnum, Message, Rank, Topic};

fn net(size: u32) -> TestNet {
    TestNet::new(size, 2, |_| standard_modules())
}

fn topic(s: &str) -> Topic {
    Topic::new(s).unwrap()
}

/// Pumps timers (heartbeats included) until the client has ≥ `want`
/// messages or `max_timers` fire.
fn pump(net: &mut TestNet, rank: Rank, cid: u32, want: usize, max_timers: usize) -> Vec<Message> {
    let mut out = Vec::new();
    for _ in 0..max_timers {
        out.extend(net.take_client_msgs(rank, cid));
        if out.len() >= want {
            return out;
        }
        if !net.fire_next_timer() {
            break;
        }
    }
    out.extend(net.take_client_msgs(rank, cid));
    out
}

fn rpc(net: &mut TestNet, rank: Rank, cid: u32, msg: Message) -> Message {
    net.client_send(rank, cid, msg);
    let msgs = pump(net, rank, cid, 1, 500);
    assert!(!msgs.is_empty(), "no reply to {rank}/{cid}");
    msgs.into_iter().next().unwrap()
}

#[test]
fn all_nine_modules_load() {
    let net = net(3);
    let names = net.broker(Rank(0)).module_names();
    for expected in ["hb", "live", "log", "mon", "group", "barrier", "kvs", "wexec", "resvc"] {
        assert!(names.contains(&expected), "{expected} missing from {names:?}");
    }
    assert_eq!(names.len(), 9);
}

#[test]
fn hb_heartbeats_propagate_epochs() {
    let mut net = net(7);
    // Fire enough timers for a few heartbeats (early timers include
    // resvc's enumeration-fence windows).
    for _ in 0..50 {
        assert!(net.fire_next_timer());
    }
    // Ask a leaf broker's hb module for its epoch.
    let mut c = ClientCore::new(Rank(6), 0);
    let req = c.request(topic("hb.epoch"), Value::Null, 1);
    let resp = rpc(&mut net, Rank(6), 0, req);
    let epoch = resp.payload.get("epoch").and_then(Value::as_int).unwrap();
    assert!(epoch >= 1, "leaf saw heartbeat epochs, got {epoch}");
}

#[test]
fn barrier_releases_all_participants() {
    let size = 7u32;
    let mut net = net(size);
    let mut clients: Vec<ClientCore> =
        (0..size).map(|r| ClientCore::new(Rank(r), 0)).collect();
    for r in 0..size {
        let req = clients[r as usize].request(
            topic("barrier.enter"),
            Value::from_pairs([
                ("name", Value::from("b1")),
                ("nprocs", Value::from(i64::from(size))),
            ]),
            1,
        );
        net.client_send(Rank(r), 0, req);
    }
    for r in 0..size {
        let msgs = pump(&mut net, Rank(r), 0, 1, 500);
        assert_eq!(msgs.len(), 1, "rank {r} released");
        assert!(!msgs[0].is_error());
        assert_eq!(msgs[0].payload.get("name"), Some(&Value::from("b1")));
    }
}

#[test]
fn two_sequential_barriers_with_same_name() {
    let size = 3u32;
    let mut net = net(size);
    for round in 0u32..2 {
        let mut clients: Vec<ClientCore> =
            (0..size).map(|r| ClientCore::new(Rank(r), round)).collect();
        for r in 0..size {
            let req = clients[r as usize].request(
                topic("barrier.enter"),
                Value::from_pairs([
                    ("name", Value::from(format!("round{round}"))),
                    ("nprocs", Value::from(i64::from(size))),
                ]),
                1,
            );
            net.client_send(Rank(r), round, req);
        }
        for r in 0..size {
            let msgs = pump(&mut net, Rank(r), round, 1, 500);
            assert_eq!(msgs.len(), 1, "round {round} rank {r}");
        }
    }
}

#[test]
fn one_release_hands_every_local_waiter_one_payload() {
    const K: u32 = 4;
    let size = 3u32;
    let mut net = net(size);
    for r in 0..size {
        for cid in 0..K {
            let mut client = ClientCore::new(Rank(r), cid);
            net.client_send(Rank(r), cid, enter(&mut client, "shared", i64::from(size * K), 1));
        }
    }
    // The root releases its waiters on completion, the others on the
    // `barrier.exit` event: each answers its K with one `{name}`.
    for r in 0..size {
        let released: Vec<Message> =
            (0..K).flat_map(|cid| pump(&mut net, Rank(r), cid, 1, 500)).collect();
        assert_eq!(released.len(), K as usize, "rank {r}");
        assert_eq!(released[0].payload.get("name"), Some(&Value::from("shared")));
        for msg in &released[1..] {
            assert!(std::ptr::eq(msg.payload.value(), released[0].payload.value()), "rank {r}");
        }
    }
}

/// `barrier.enter {name, nprocs}` from `client`.
fn enter(client: &mut ClientCore, name: &str, nprocs: i64, tag: u64) -> Message {
    let payload = Value::from_pairs([("name", Value::from(name)), ("nprocs", Value::from(nprocs))]);
    client.request(topic("barrier.enter"), payload, tag)
}

#[test]
fn a_process_entering_a_barrier_twice_is_refused_and_still_waits_for_another() {
    let mut net = net(7);
    let mut twice = ClientCore::new(Rank(5), 0);
    let (first, again) = (enter(&mut twice, "b", 2, 1), enter(&mut twice, "b", 2, 2));
    let (first_id, again_id) = (first.header.id, again.header.id);
    net.client_send(Rank(5), 0, first);
    net.client_send(Rank(5), 0, again);
    let msgs = pump(&mut net, Rank(5), 0, 2, 200);
    // Counted, the second entry would release both: one process early.
    assert_eq!(msgs.len(), 1, "{msgs:?}");
    assert_eq!((msgs[0].header.id, msgs[0].header.errnum), (again_id, errnum::EINVAL));
    let mut other = ClientCore::new(Rank(2), 0);
    net.client_send(Rank(2), 0, enter(&mut other, "b", 2, 1));
    for (rank, id) in [(Rank(5), Some(first_id)), (Rank(2), None)] {
        let msgs = pump(&mut net, rank, 0, 1, 500);
        assert_eq!(msgs.len(), 1, "rank {rank} released once");
        assert!(!msgs[0].is_error());
        assert!(id.is_none_or(|id| msgs[0].header.id == id), "the first entry is the one released");
    }
}

#[test]
fn a_barrier_entry_that_disagrees_on_nprocs_is_refused() {
    let mut net = net(7);
    let mut clients = [ClientCore::new(Rank(3), 0), ClientCore::new(Rank(3), 1)];
    net.client_send(Rank(3), 0, enter(&mut clients[0], "b", 2, 1));
    net.client_send(Rank(3), 1, enter(&mut clients[1], "b", 3, 1));
    let refused = pump(&mut net, Rank(3), 1, 1, 200);
    assert_eq!(refused.len(), 1);
    assert_eq!(refused[0].header.errnum, errnum::EINVAL);
    assert!(pump(&mut net, Rank(3), 0, 1, 200).is_empty(), "1 of 2 entered: still parked");
}

#[test]
fn log_messages_reduce_to_root_session_log() {
    let mut net = net(7);
    // Log from three different ranks.
    for (r, text) in [(3u32, "from three"), (5, "from five"), (0, "from zero")] {
        let mut c = ClientCore::new(Rank(r), 0);
        let req = c.request(
            topic("log.msg"),
            Value::from_pairs([
                ("level", Value::Int(6)),
                ("text", Value::from(text)),
            ]),
            1,
        );
        let resp = rpc(&mut net, Rank(r), 0, req);
        assert!(!resp.is_error());
    }
    // Heartbeats flush batches upstream (may need several to traverse
    // interior hops).
    for _ in 0..40 {
        net.fire_next_timer();
    }
    // Query the session log (relayed to the root from a leaf).
    let mut c = ClientCore::new(Rank(6), 1);
    let req = c.request(topic("log.query"), Value::object(), 2);
    let resp = rpc(&mut net, Rank(6), 1, req);
    let entries = resp.payload.get("entries").unwrap().as_array().unwrap();
    let texts: Vec<&str> =
        entries.iter().filter_map(|e| e.get("text").and_then(Value::as_str)).collect();
    for want in ["from three", "from five", "from zero"] {
        assert!(texts.contains(&want), "{want} missing from {texts:?}");
    }
}

#[test]
fn log_dump_returns_local_ring_rank_addressed() {
    let mut net = net(5);
    let mut local = ClientCore::new(Rank(4), 0);
    let req = local.request(
        topic("log.msg"),
        Value::from_pairs([("level", Value::Int(7)), ("text", Value::from("debug r4"))]),
        1,
    );
    let _ = rpc(&mut net, Rank(4), 0, req);
    // Rank-addressed dump of rank 4's ring from rank 1 (the paper's
    // debugging-over-the-ring use case).
    let mut remote = ClientCore::new(Rank(1), 0);
    let req = remote.request_to(Rank(4), topic("log.dump"), Value::object(), 2);
    let resp = rpc(&mut net, Rank(1), 0, req);
    let entries = resp.payload.get("entries").unwrap().as_array().unwrap();
    assert!(entries
        .iter()
        .any(|e| e.get("text").and_then(Value::as_str) == Some("debug r4")));
}

#[test]
fn mon_samples_reduce_into_kvs() {
    let size = 7u32;
    let mut net = net(size);
    // Register a sampler.
    let mut c = ClientCore::new(Rank(2), 0);
    let req = c.request(
        topic("mon.add"),
        Value::from_pairs([
            ("name", Value::from("load")),
            ("metric", Value::from("load")),
            ("period", Value::Int(1)),
        ]),
        1,
    );
    let resp = rpc(&mut net, Rank(2), 0, req);
    assert!(!resp.is_error(), "{resp:?}");
    // Let several heartbeats elapse: spec discovery, sampling, reduction,
    // root finalization.
    for _ in 0..60 {
        if !net.fire_next_timer() {
            break;
        }
    }
    // Some epoch's aggregate must exist in the KVS with count == size.
    let mut probe = ClientCore::new(Rank(0), 1);
    let req = probe.request(
        topic("kvs.get"),
        Value::from_pairs([("k", Value::from("mon.data.load")), ("dir", Value::Bool(true))]),
        2,
    );
    let resp = rpc(&mut net, Rank(0), 1, req);
    assert!(!resp.is_error(), "no mon data: {resp:?}");
    let epochs: Vec<String> =
        resp.payload.get("dir").unwrap().as_object().unwrap().keys().cloned().collect();
    assert!(!epochs.is_empty());
    // Spec discovery is not synchronized, so the earliest epoch may have a
    // partial count; a settled epoch must cover the full session.
    let mut best_count = 0;
    for epoch in &epochs {
        let req = probe.request(
            topic("kvs.get"),
            Value::from_pairs([("k", Value::from(format!("mon.data.load.{epoch}")))]),
            3,
        );
        let resp = rpc(&mut net, Rank(0), 1, req);
        let agg = resp.payload.get("v").unwrap();
        let count = agg.get("count").and_then(Value::as_int).unwrap();
        let avg = agg.get("avg").and_then(Value::as_float).unwrap();
        let min = agg.get("min").and_then(Value::as_float).unwrap();
        let max = agg.get("max").and_then(Value::as_float).unwrap();
        assert!(min <= avg && avg <= max);
        best_count = best_count.max(count);
    }
    assert_eq!(best_count, i64::from(size), "a settled epoch covers all brokers");
}

#[test]
fn group_join_info_leave() {
    let mut net = net(5);
    // Three clients join from different ranks.
    for r in [0u32, 2, 4] {
        let mut c = ClientCore::new(Rank(r), 0);
        let req = c.request(
            topic("group.join"),
            Value::from_pairs([("name", Value::from("tools"))]),
            1,
        );
        let resp = rpc(&mut net, Rank(r), 0, req);
        assert!(!resp.is_error(), "join from {r}: {resp:?}");
    }
    let mut probe = ClientCore::new(Rank(3), 0);
    let req = probe.request(
        topic("group.info"),
        Value::from_pairs([("name", Value::from("tools"))]),
        2,
    );
    let resp = rpc(&mut net, Rank(3), 0, req);
    assert_eq!(resp.payload.get("size"), Some(&Value::Int(3)), "{resp:?}");
    // One leaves.
    let mut c = ClientCore::new(Rank(2), 0);
    let req = c.request(
        topic("group.leave"),
        Value::from_pairs([("name", Value::from("tools"))]),
        3,
    );
    let resp = rpc(&mut net, Rank(2), 0, req);
    assert!(!resp.is_error());
    let req = probe.request(
        topic("group.info"),
        Value::from_pairs([("name", Value::from("tools"))]),
        4,
    );
    let resp = rpc(&mut net, Rank(3), 0, req);
    assert_eq!(resp.payload.get("size"), Some(&Value::Int(2)));
    // Unknown group reads as empty.
    let req = probe.request(
        topic("group.info"),
        Value::from_pairs([("name", Value::from("nobody"))]),
        5,
    );
    let resp = rpc(&mut net, Rank(3), 0, req);
    assert_eq!(resp.payload.get("size"), Some(&Value::Int(0)));
}

/// On a 2-shard KVS a join or leave answers the version its commit gave
/// the shard holding the member key — the version that shard's own
/// `kvs.get_version` then reads.
#[test]
fn group_join_and_leave_answer_the_member_shards_version() {
    let kvs = flux_kvs::KvsConfig { shards: 2, ..flux_kvs::KvsConfig::default() };
    let mut net = TestNet::new(4, 2, move |_| {
        let modules: Vec<Box<dyn flux_broker::CommsModule>> = vec![
            Box::new(flux_modules::GroupModule::new()),
            Box::new(flux_kvs::KvsModule::with_config(kvs)),
        ];
        modules
    });
    for (tag, (rank, method)) in
        [(2u32, "group.join"), (3, "group.join"), (2, "group.leave")].into_iter().enumerate()
    {
        let mut c = ClientCore::new(Rank(rank), 0);
        let name = Value::from_pairs([("name", Value::from("tools"))]);
        let resp = rpc(&mut net, Rank(rank), 0, c.request(topic(method), name, tag as u64));
        let version = resp.payload.get("version").and_then(Value::as_int);
        let key = format!("groups.tools.r{rank}-c0");
        let shard = flux_kvs::shard::shard_of_key(&key, 2).unwrap();
        let probe =
            c.request(topic("kvs.get_version"), flux_kvs::msg::version(None, Some(shard)), 9);
        let at = flux_kvs::msg::decode_root(&rpc(&mut net, Rank(rank), 0, probe).payload);
        assert!(version.is_some_and(|v| v >= 1), "{method} from {rank}: {resp:?}");
        assert_eq!(version, Some(at.version as i64), "{method} from {rank}: shard {shard}");
    }
}

#[test]
fn wexec_bulk_launch_captures_stdout_and_completes() {
    let size = 7u32;
    let mut net = net(size);
    let mut c = ClientCore::new(Rank(3), 0);
    // Subscribe to completion events first.
    let sub = c.request(
        topic("cmb.sub"),
        Value::from_pairs([("prefix", Value::from("wexec.complete"))]),
        0,
    );
    let _ = rpc(&mut net, Rank(3), 0, sub);
    // Launch `echo` on all ranks.
    let run = c.request(
        topic("wexec.run"),
        Value::from_pairs([
            ("jobid", Value::Int(1)),
            ("cmd", Value::from("echo out-$RANK")),
            ("targets", Value::from("all")),
        ]),
        1,
    );
    let ack = rpc(&mut net, Rank(3), 0, run);
    assert_eq!(ack.payload.get("ntasks"), Some(&Value::Int(i64::from(size))));
    // Pump heartbeats until the completion event arrives.
    let msgs = pump(&mut net, Rank(3), 0, 1, 500);
    let complete = msgs
        .iter()
        .find(|m| m.header.topic.as_str() == "wexec.complete")
        .unwrap_or_else(|| panic!("no completion event in {msgs:?}"));
    assert_eq!(complete.payload.get("failed"), Some(&Value::Int(0)));
    // Stdout of every rank captured in the KVS.
    let mut probe = ClientCore::new(Rank(0), 1);
    for r in 0..size {
        let req = probe.request(
            topic("kvs.get"),
            Value::from_pairs([("k", Value::from(format!("lwj.1.{r}.stdout")))]),
            2,
        );
        let resp = rpc(&mut net, Rank(0), 1, req);
        assert_eq!(
            resp.payload.get("v"),
            Some(&Value::from(format!("out-{r}"))),
            "rank {r} stdout"
        );
    }
    // Completion record in the KVS.
    let req = probe.request(
        topic("kvs.get"),
        Value::from_pairs([("k", Value::from("lwj.1.complete"))]),
        3,
    );
    let resp = rpc(&mut net, Rank(0), 1, req);
    assert_eq!(resp.payload.get("v").unwrap().get("ntasks"), Some(&Value::Int(i64::from(size))));
}

#[test]
fn wexec_kill_terminates_sleepers() {
    let mut net = net(3);
    let mut c = ClientCore::new(Rank(0), 0);
    let sub = c.request(
        topic("cmb.sub"),
        Value::from_pairs([("prefix", Value::from("wexec.complete"))]),
        0,
    );
    let _ = rpc(&mut net, Rank(0), 0, sub);
    // Long sleepers everywhere.
    let run = c.request(
        topic("wexec.run"),
        Value::from_pairs([
            ("jobid", Value::Int(2)),
            ("cmd", Value::from("sleep 3600000")),
            ("targets", Value::from("all")),
        ]),
        1,
    );
    let _ = rpc(&mut net, Rank(0), 0, run);
    // Kill the job.
    let kill = c.request(
        topic("wexec.kill"),
        Value::from_pairs([("jobid", Value::Int(2))]),
        2,
    );
    let _ = rpc(&mut net, Rank(0), 0, kill);
    let msgs = pump(&mut net, Rank(0), 0, 1, 500);
    let complete = msgs
        .iter()
        .find(|m| m.header.topic.as_str() == "wexec.complete")
        .unwrap_or_else(|| panic!("no completion event in {msgs:?}"));
    assert_eq!(complete.payload.get("failed"), Some(&Value::Int(3)));
    assert_eq!(complete.payload.get("max_code"), Some(&Value::Int(137)));
}

#[test]
fn resvc_enumerates_and_allocates() {
    let size = 7u32;
    let mut net = net(size);
    // Resource enumeration completes via a fence; pump it.
    for _ in 0..100 {
        if !net.fire_next_timer() {
            break;
        }
    }
    let mut probe = ClientCore::new(Rank(0), 1);
    // Every rank's inventory is in the KVS.
    for r in 0..size {
        let req = probe.request(
            topic("kvs.get"),
            Value::from_pairs([("k", Value::from(format!("resource.r{r}")))]),
            1,
        );
        let resp = rpc(&mut net, Rank(0), 1, req);
        assert!(!resp.is_error(), "resource.r{r}: {resp:?}");
        assert_eq!(resp.payload.get("v").unwrap().get("cores"), Some(&Value::Int(16)));
    }
    // Allocate 3 nodes from a leaf.
    let mut c = ClientCore::new(Rank(6), 0);
    let req = c.request(
        topic("resvc.alloc"),
        Value::from_pairs([("jobid", Value::Int(10)), ("nnodes", Value::Int(3))]),
        2,
    );
    let resp = rpc(&mut net, Rank(6), 0, req);
    let ranks = resp.payload.get("ranks").unwrap().as_array().unwrap();
    assert_eq!(ranks.len(), 3);
    // Status reflects the allocation.
    let req = c.request(topic("resvc.status"), Value::object(), 3);
    let resp = rpc(&mut net, Rank(6), 0, req);
    assert_eq!(resp.payload.get("free"), Some(&Value::Int(i64::from(size) - 3)));
    // Over-allocation is refused with EAGAIN.
    let req = c.request(
        topic("resvc.alloc"),
        Value::from_pairs([("jobid", Value::Int(11)), ("nnodes", Value::Int(100))]),
        4,
    );
    let resp = rpc(&mut net, Rank(6), 0, req);
    assert_eq!(resp.header.errnum, flux_wire::errnum::EAGAIN);
    // Free and reallocate.
    let req = c.request(
        topic("resvc.free"),
        Value::from_pairs([("jobid", Value::Int(10))]),
        5,
    );
    let resp = rpc(&mut net, Rank(6), 0, req);
    assert!(!resp.is_error());
    let req = c.request(topic("resvc.status"), Value::object(), 6);
    let resp = rpc(&mut net, Rank(6), 0, req);
    assert_eq!(resp.payload.get("free"), Some(&Value::Int(i64::from(size))));
}

#[test]
fn live_detects_dead_interior_node_via_missed_hellos() {
    let mut net = net(15);
    // Let the session settle with a few heartbeats.
    for _ in 0..30 {
        net.fire_next_timer();
    }
    // Kill rank 5 (interior: parent of 11, 12).
    net.kill(Rank(5));
    // After miss_limit heartbeats, its parent (rank 2) publishes
    // live.down; the session's liveness view updates everywhere.
    for _ in 0..400 {
        net.fire_next_timer();
    }
    let mut c = ClientCore::new(Rank(11), 0);
    let req = c.request(topic("live.status"), Value::object(), 1);
    let resp = rpc(&mut net, Rank(11), 0, req);
    let up: Vec<i64> =
        resp.payload.get("up").unwrap().as_array().unwrap().iter().filter_map(Value::as_int).collect();
    assert!(!up.contains(&5), "rank 5 must be marked down: {up:?}");
    assert!(up.contains(&11) && up.contains(&0));
    // The orphaned subtree still reaches root services: KVS get from 11.
    let req = c.request(
        topic("kvs.get_version"),
        Value::object(),
        2,
    );
    let resp = rpc(&mut net, Rank(11), 0, req);
    assert!(!resp.is_error());
}
