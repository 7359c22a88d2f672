//! LiveModule edge cases: malformed hellos, reordered heartbeat epochs,
//! and `reported_down` bookkeeping across a kill → revive → re-kill
//! cycle.

#![allow(clippy::disallowed_methods, reason = "a test builds its topics directly")]

use flux_broker::client::ClientCore;
use flux_broker::testing::TestNet;
use flux_broker::CommsModule;
use flux_modules::{standard_modules, LiveModule};
use flux_value::Value;
use flux_wire::{Rank, Topic};

fn topic(s: &str) -> Topic {
    Topic::new(s).unwrap()
}

/// Subscribes `cid` at `rank` to `live.*` events and drains the inbox.
fn subscribe_live(net: &mut TestNet, rank: Rank, cid: u32) {
    let sub = ClientCore::new(rank, cid).request(
        topic("cmb.sub"),
        Value::from_pairs([("prefix", Value::from("live"))]),
        0,
    );
    net.client_send(rank, cid, sub);
    let _ = net.take_client_msgs(rank, cid);
}

fn live_events(net: &mut TestNet, rank: Rank, cid: u32) -> Vec<(String, u64)> {
    net.take_client_msgs(rank, cid)
        .into_iter()
        .filter_map(|m| {
            let r = m.payload.get("rank").and_then(Value::as_uint)?;
            Some((m.header.topic.as_str().to_owned(), r))
        })
        .collect()
}

fn up_list(net: &mut TestNet, rank: Rank, cid: u32) -> Vec<u64> {
    let req = ClientCore::new(rank, cid).request(topic("live.status"), Value::object(), 1);
    net.client_send(rank, cid, req);
    let resp = net
        .take_client_msgs(rank, cid)
        .into_iter()
        .next()
        .expect("live.status reply");
    resp.payload
        .get("up")
        .and_then(Value::as_array)
        .map(|a| a.iter().filter_map(Value::as_uint).collect())
        .unwrap_or_default()
}

/// A hello naming a rank outside the session must be ignored: no child
/// entry, no events, and the liveness view stays full.
#[test]
fn hello_from_unknown_rank_is_ignored() {
    let mut net = TestNet::new(7, 2, |_| standard_modules());
    for _ in 0..40 {
        net.fire_next_timer();
    }
    subscribe_live(&mut net, Rank(0), 7);

    // A direct client request stands in for a forged/late peer hello.
    for bogus in [7u64, 99, u64::MAX] {
        let hello = ClientCore::new(Rank(0), 8).request(
            topic("live.hello"),
            Value::from_pairs([("rank", Value::from(bogus as i64))]),
            0,
        );
        net.client_send(Rank(0), 8, hello);
    }
    for _ in 0..60 {
        net.fire_next_timer();
    }
    assert_eq!(live_events(&mut net, Rank(0), 7), vec![], "no events for out-of-range ranks");
    assert_eq!(up_list(&mut net, Rank(0), 7), vec![0, 1, 2, 3, 4, 5, 6]);
}

/// Heartbeat epochs arriving out of order (duplicated or reordered under
/// fault injection) must never trigger spurious downs: an old epoch is
/// tracked but judges nobody, and a forward jump only refreshes grace.
#[test]
fn backwards_epochs_cause_no_spurious_downs() {
    // Live module only: heartbeats are published by hand so epochs can
    // be driven out of order.
    let mut net =
        TestNet::new(7, 2, |_| vec![Box::new(LiveModule::new()) as Box<dyn CommsModule>]);
    subscribe_live(&mut net, Rank(0), 7);
    let hb = |net: &mut TestNet, epoch: i64| {
        net.publish_from_root(topic("hb"), Value::from_pairs([("epoch", Value::from(epoch))]));
    };
    for e in 1..=4 {
        hb(&mut net, e);
    }
    // A stale epoch replayed (far) behind the watermark…
    hb(&mut net, 2);
    hb(&mut net, 1);
    // …then a jump well past miss_limit (deaf-guard path), then stale again.
    hb(&mut net, 12);
    hb(&mut net, 3);
    // Normal progression resumes from the watermark.
    for e in 13..=20 {
        hb(&mut net, e);
    }
    assert_eq!(
        live_events(&mut net, Rank(0), 7),
        vec![],
        "reordered epochs must not report downs"
    );
    assert_eq!(up_list(&mut net, Rank(0), 7), vec![0, 1, 2, 3, 4, 5, 6]);
}

/// Kill → `live.down`; revive → hello → `live.up` resets
/// `reported_down`, so a second kill is detected again.
#[test]
fn rejoin_resets_reported_down() {
    let mut net = TestNet::new(7, 2, |_| standard_modules());
    for _ in 0..40 {
        net.fire_next_timer();
    }
    subscribe_live(&mut net, Rank(0), 7);

    net.kill(Rank(1));
    for _ in 0..500 {
        net.fire_next_timer();
    }
    assert_eq!(live_events(&mut net, Rank(0), 7), vec![("live.down".to_owned(), 1)]);
    assert!(!up_list(&mut net, Rank(0), 7).contains(&1));

    // Revive with state intact: the next heartbeat reaches it (parents
    // keep fanning to down children), its hello flows, live.up fires.
    net.revive(Rank(1));
    for _ in 0..300 {
        net.fire_next_timer();
    }
    assert_eq!(live_events(&mut net, Rank(0), 7), vec![("live.up".to_owned(), 1)]);
    assert!(up_list(&mut net, Rank(0), 7).contains(&1));

    // reported_down was reset: a second death is detected afresh.
    net.kill(Rank(1));
    for _ in 0..500 {
        net.fire_next_timer();
    }
    assert_eq!(live_events(&mut net, Rank(0), 7), vec![("live.down".to_owned(), 1)]);
}
