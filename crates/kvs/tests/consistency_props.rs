//! Property tests of the §IV-B consistency contract under random
//! interleavings of writers and readers across a session.

use flux_broker::testing::TestNet;
use flux_broker::CommsModule;
use flux_kvs::client::{KvsClient, KvsDelivery, KvsReply};
use flux_kvs::KvsModule;
use flux_value::Value;
use flux_wire::{Message, Rank};
use proptest::prelude::*;

fn net(size: u32) -> TestNet {
    TestNet::new(size, 2, |_| vec![Box::new(KvsModule::new()) as Box<dyn CommsModule>])
}

fn one_reply(net: &mut TestNet, rank: Rank, cid: u32) -> Message {
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

fn reply(net: &mut TestNet, c: &mut KvsClient, rank: Rank, cid: u32, msg: Message) -> KvsReply {
    net.client_send(rank, cid, msg);
    match c.deliver(one_reply(net, rank, cid)) {
        KvsDelivery::Reply { reply, .. } => reply,
        other => panic!("{other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Monotonic reads: any interleaving of commits from random ranks and
    /// version probes from one observer yields a non-decreasing version
    /// sequence at the observer, and every commit's version is unique and
    /// increasing at the master.
    #[test]
    fn versions_monotonic_under_interleaving(
        size in 2u32..16,
        ops in prop::collection::vec((0u32..16, any::<bool>()), 1..24),
    ) {
        let mut net = net(size);
        let observer_rank = Rank(size - 1);
        let mut observer = KvsClient::new(observer_rank, 7);
        let mut writers: Vec<KvsClient> =
            (0..size).map(|r| KvsClient::new(Rank(r), 0)).collect();
        let mut commit_versions = Vec::new();
        let mut observed = Vec::new();
        for (i, (rank_seed, do_write)) in ops.into_iter().enumerate() {
            let r = rank_seed % size;
            if do_write {
                let w = &mut writers[r as usize];
                let put = w.put(&format!("mono.k{r}"), Value::Int(i as i64), 1);
                net.client_send(Rank(r), 0, put);
                let _ = one_reply(&mut net, Rank(r), 0);
                let commit = w.commit(2);
                net.client_send(Rank(r), 0, commit);
                let m = one_reply(&mut net, Rank(r), 0);
                match writers[r as usize].deliver(m) {
                    KvsDelivery::Reply { reply: KvsReply::Frontier { frontier, .. }, .. } => {
                        commit_versions.push(frontier[0].version);
                    }
                    other => prop_assert!(false, "commit reply {other:?}"),
                }
            } else {
                let probe = observer.get_version(3);
                match reply(&mut net, &mut observer, observer_rank, 7, probe) {
                    KvsReply::Version(at) => observed.push(at.version),
                    other => prop_assert!(false, "probe reply {other:?}"),
                }
            }
        }
        prop_assert!(commit_versions.windows(2).all(|w| w[0] < w[1]),
            "master versions strictly increase: {commit_versions:?}");
        prop_assert!(observed.windows(2).all(|w| w[0] <= w[1]),
            "observer never sees time go backwards: {observed:?}");
    }

    /// Read-your-writes + causal: after a writer's commit at version v,
    /// any reader that waits for v sees the write, for arbitrary
    /// writer/reader placements.
    #[test]
    fn causal_chain_any_placement(
        size in 2u32..16,
        chains in prop::collection::vec((0u32..16, 0u32..16, -500i64..500), 1..8),
    ) {
        let mut net = net(size);
        for (i, (w_seed, r_seed, val)) in chains.into_iter().enumerate() {
            let wr = Rank(w_seed % size);
            let rr = Rank(r_seed % size);
            let key = format!("causal.k{i}");
            let mut w = KvsClient::new(wr, 2);
            let put = w.put(&key, Value::Int(val), 1);
            net.client_send(wr, 2, put);
            let _ = one_reply(&mut net, wr, 2);
            let commit = w.commit(2);
            net.client_send(wr, 2, commit);
            let m = one_reply(&mut net, wr, 2);
            let version = match w.deliver(m) {
                KvsDelivery::Reply { reply: KvsReply::Frontier { frontier, .. }, .. } => {
                    frontier[0].version
                }
                other => {
                    prop_assert!(false, "{other:?}");
                    unreachable!()
                }
            };
            // The reader learns `version` out of band and waits for it.
            let mut r = KvsClient::new(rr, 3);
            let wait = r.wait_version(version, 1);
            let rep = reply(&mut net, &mut r, rr, 3, wait);
            let waited_ok = matches!(rep, KvsReply::Version(at) if at.version >= version);
            prop_assert!(waited_ok, "wait_version returned too early");
            let get = r.get(&key, 2);
            let rep = reply(&mut net, &mut r, rr, 3, get);
            prop_assert_eq!(rep, KvsReply::Value(Value::Int(val)));
        }
    }

    /// Fences of random sizes with random payload redundancy complete for
    /// every participant, and afterwards all written keys resolve
    /// everywhere.
    #[test]
    fn fences_always_complete(size in 2u32..12, redundant in any::<bool>(), seed in 0u64..1000) {
        let mut net = net(size);
        let mut clients: Vec<KvsClient> =
            (0..size).map(|r| KvsClient::new(Rank(r), 4)).collect();
        for r in 0..size {
            let val = if redundant {
                Value::from("same")
            } else {
                Value::from(format!("{seed}-{r}"))
            };
            let put = clients[r as usize].put(&format!("f{seed}.k{r}"), val, 1);
            net.client_send(Rank(r), 4, put);
            let _ = one_reply(&mut net, Rank(r), 4);
            let fence = clients[r as usize].fence("pf", u64::from(size), 2);
            net.client_send(Rank(r), 4, fence);
        }
        // Collect all fence completions (pump timers).
        for r in 0..size {
            let m = one_reply(&mut net, Rank(r), 4);
            let rep = match clients[r as usize].deliver(m) {
                KvsDelivery::Reply { reply, .. } => reply,
                other => {
                    prop_assert!(false, "{other:?}");
                    unreachable!()
                }
            };
            prop_assert!(matches!(rep, KvsReply::Frontier { .. }), "{rep:?}");
        }
        // Every key visible from rank 0.
        let mut probe = KvsClient::new(Rank(0), 9);
        for r in 0..size {
            let get = probe.get(&format!("f{seed}.k{r}"), 3);
            let rep = reply(&mut net, &mut probe, Rank(0), 9, get);
            prop_assert!(matches!(rep, KvsReply::Value(_)), "key {r}: {rep:?}");
        }
    }
}
