//! The two collectives, `barrier.enter` and `kvs.fence`, under one
//! property on random trees: `nprocs` distinct processes enter, at
//! random ranks and in random order, and some enter again before the
//! last has entered. Nobody is answered before the last distinct entry;
//! each distinct entry is then answered once, with success; every
//! repeat is refused with `EINVAL`; and a fence's answer is a cut that
//! holds every participant's staged put.
//!
//! CI runs it with `PROPTEST_CASES=2048` in release.

use flux_broker::client::ClientCore;
use flux_broker::testing::TestNet;
use flux_broker::CommsModule;
use flux_kvs::{msg, KvsModule};
use flux_modules::{standard_modules, BarrierModule};
use flux_proto::{BarrierMethod, KvsMethod};
use flux_value::Value;
use flux_wire::{errnum, Message, MsgId, Rank, Topic};
use proptest::prelude::*;

/// One drawn session and schedule.
#[derive(Debug)]
struct Case {
    size: u32,
    arity: u32,
    /// Each participant's rank; its client id is its index.
    ranks: Vec<u32>,
    /// Entries in send order, by participant: a participant's first is
    /// its entry, any later one a repeat. The last is the first entry of
    /// the last distinct participant.
    order: Vec<usize>,
}

fn cases() -> impl Strategy<Value = Case> {
    // Per participant: its rank and the key that orders the first entries.
    let drawn = prop::collection::vec((any::<u32>(), any::<u64>()), 1..7);
    let repeats = prop::collection::vec((any::<usize>(), any::<usize>()), 0..8);
    (2u32..=12, 2u32..=4, drawn, repeats).prop_map(|(size, arity, drawn, repeats)| {
        let ranks = drawn.iter().map(|&(rank, _)| rank % size).collect();
        let mut firsts: Vec<usize> = (0..drawn.len()).collect();
        firsts.sort_by_key(|&who| drawn[who].1);
        let (last, early) = firsts.split_last().expect("one participant at least");
        let mut order = Vec::new();
        for (s, &who) in early.iter().enumerate() {
            order.push(who);
            // Repeats by the `s + 1` who have entered so far.
            let here = repeats.iter().filter(|(slot, _)| slot % early.len() == s);
            order.extend(here.map(|(_, pick)| early[pick % (s + 1)]));
        }
        order.push(*last);
        Case { size, arity, ranks, order }
    })
}

fn net(case: &Case) -> TestNet {
    TestNet::new(case.size, case.arity, |_| {
        let modules: Vec<Box<dyn CommsModule>> =
            vec![Box::new(KvsModule::new()), Box::new(BarrierModule::new())];
        modules
    })
}

/// Delivers everything in flight, firing every window on the way.
fn settle(net: &mut TestNet) {
    let until = net.now_ns() + 1_000_000;
    net.run_until(until);
}

/// One request from participant `who`, answered before this returns.
fn rpc(
    net: &mut TestNet,
    clients: &mut [ClientCore],
    who: usize,
    topic: Topic,
    v: Value,
) -> Message {
    let rank = clients[who].origin();
    net.client_send(rank, who as u32, clients[who].request(topic, v, 0));
    settle(net);
    let mut replies = net.take_client_msgs(rank, who as u32);
    assert_eq!(replies.len(), 1, "participant {who}: {replies:?}");
    replies.remove(0)
}

fn check(case: &Case, topic: Topic) -> Result<(), TestCaseError> {
    let fence = topic == KvsMethod::Fence.topic();
    let mut net = net(case);
    let n = case.ranks.len();
    let mut clients: Vec<ClientCore> =
        case.ranks.iter().enumerate().map(|(i, &r)| ClientCore::new(Rank(r), i as u32)).collect();
    if fence {
        for who in 0..n {
            let put = msg::put(format!("p.{who}"), Value::from(who as i64));
            let reply = rpc(&mut net, &mut clients, who, KvsMethod::Put.topic(), put);
            prop_assert!(!reply.is_error(), "put {}: {:?}", who, reply);
        }
    }
    let mut firsts: Vec<Option<MsgId>> = vec![None; n];
    let mut answers: Vec<Vec<Message>> = vec![Vec::new(); n];
    for (step, &who) in case.order.iter().enumerate() {
        let entry = clients[who].request(topic.clone(), msg::fence("c", n as u64), step as u64);
        let repeat = firsts[who].is_some();
        if !repeat {
            firsts[who] = Some(entry.header.id);
        }
        let id = entry.header.id;
        net.client_send(Rank(case.ranks[who]), who as u32, entry);
        settle(&mut net);
        let last = step + 1 == case.order.len();
        for (i, inbox) in answers.iter_mut().enumerate() {
            for reply in net.take_client_msgs(Rank(case.ranks[i]), i as u32) {
                if repeat && reply.header.id == id {
                    prop_assert_eq!(reply.header.errnum, errnum::EINVAL, "step {}: repeat", step);
                } else {
                    prop_assert!(last, "step {}: {} answered early: {:?}", step, i, reply);
                    inbox.push(reply);
                }
            }
        }
    }
    let mut cuts = Vec::new();
    for (who, inbox) in answers.iter().enumerate() {
        prop_assert_eq!(inbox.len(), 1, "participant {} answered once", who);
        let reply = &inbox[0];
        prop_assert_eq!(Some(reply.header.id), firsts[who], "participant {}: its entry", who);
        prop_assert!(!reply.is_error(), "participant {}: {:?}", who, reply);
        cuts.push(msg::decode_cut(&reply.payload));
    }
    if fence {
        // One commit in the session: the fence's cut is version 1, and
        // what every participant reads now is what that cut holds.
        prop_assert!(cuts.iter().all(|c| c.roots.iter().map(|r| r.version).eq([1])), "{:?}", cuts);
        for who in 0..n {
            for key in 0..n {
                let get = msg::key(format!("p.{key}"));
                let reply = rpc(&mut net, &mut clients, who, KvsMethod::Get.topic(), get);
                prop_assert_eq!(msg::value(&reply.payload), Some(&Value::from(key as i64)));
            }
        }
    }
    Ok(())
}

/// Two processes that disagree on `nprocs` enter at different brokers of
/// a seven-broker session, so their entries first meet at the root. The
/// root fails the collective instead of counting to either value: both
/// are refused with `EINVAL`, and the fence applies nothing.
#[test]
fn entries_that_disagree_on_nprocs_across_brokers_fail_the_collective() {
    for topic in [BarrierMethod::Enter.topic(), KvsMethod::Fence.topic()] {
        let fence = topic == KvsMethod::Fence.topic();
        let mut net = TestNet::new(7, 2, |_| standard_modules());
        let mut clients = [ClientCore::new(Rank(3), 0), ClientCore::new(Rank(6), 1)];
        if fence {
            for who in 0..2 {
                let put = msg::put(format!("p.{who}"), Value::from(who as i64));
                let reply = rpc(&mut net, &mut clients, who, KvsMethod::Put.topic(), put);
                assert!(!reply.is_error(), "put {who}: {reply:?}");
            }
        }
        for (who, nprocs) in [(0, 2), (1, 3)] {
            let entry = clients[who].request(topic.clone(), msg::fence("m", nprocs), 0);
            net.client_send(clients[who].origin(), who as u32, entry);
        }
        settle(&mut net);
        for (who, client) in clients.iter().enumerate() {
            let replies = net.take_client_msgs(client.origin(), who as u32);
            let codes: Vec<u32> = replies.iter().map(|r| r.header.errnum).collect();
            assert_eq!(codes, [errnum::EINVAL], "{topic}: participant {who}");
        }
        if fence {
            for who in 0..2 {
                let get = msg::key(format!("p.{who}"));
                let reply = rpc(&mut net, &mut clients, who, KvsMethod::Get.topic(), get);
                assert_eq!(reply.header.errnum, errnum::ENOENT, "p.{who} was not committed");
            }
        }
    }
}

proptest! {
    #[test]
    fn no_barrier_releases_early_or_counts_a_repeat(case in cases()) {
        check(&case, BarrierMethod::Enter.topic())?;
    }

    #[test]
    fn no_fence_completes_early_or_counts_a_repeat(case in cases()) {
        check(&case, KvsMethod::Fence.topic())?;
    }
}
