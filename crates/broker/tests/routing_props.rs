//! Property tests over broker routing: arbitrary topologies, module
//! placements, and request mixes always produce exactly one response per
//! request, delivered to the right client.

#![allow(clippy::disallowed_methods, reason = "a test builds its topics directly")]

use flux_broker::client::ClientCore;
use flux_broker::testing::TestNet;
use flux_broker::{CommsModule, Handled, ModuleCtx};
use flux_value::Value;
use flux_wire::{errnum, Message, Rank, Topic};
use proptest::prelude::*;

/// Echoes the answering rank.
struct Echo;

impl CommsModule for Echo {
    fn name(&self) -> &'static str {
        "echo"
    }

    fn handle_request(&mut self, ctx: &mut ModuleCtx<'_>, msg: Message) -> Handled {
        ctx.respond(&msg, Value::from_pairs([("rank", Value::from(ctx.rank().0))]))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// With `echo` loaded only at depth ≤ d, every client request is
    /// answered exactly once, by a broker on the requester's path to the
    /// root whose depth is ≤ d.
    #[test]
    fn upstream_dispatch_total_and_on_path(
        size in 1u32..40,
        arity in 1u32..5,
        max_depth in 0u32..5,
        requests in prop::collection::vec((0u32..40, 0u32..4), 1..12),
    ) {
        let tree = flux_topo::Tree::new(size, arity);
        let mut net = TestNet::new(size, arity, |r| {
            if tree.depth(r) <= max_depth {
                vec![Box::new(Echo) as Box<dyn CommsModule>]
            } else {
                vec![]
            }
        });
        for (i, (rank_seed, client)) in requests.into_iter().enumerate() {
            let rank = Rank(rank_seed % size);
            let mut c = ClientCore::new(rank, client);
            let req = c.request(Topic::new("echo.q").unwrap(), Value::Int(i as i64), 7);
            net.client_send(rank, client, req);
            let replies = net.take_client_msgs(rank, client);
            prop_assert_eq!(replies.len(), 1, "exactly one reply");
            let resp = &replies[0];
            prop_assert!(!resp.is_error());
            let answered = Rank(resp.payload.get("rank").unwrap().as_uint().unwrap() as u32);
            prop_assert!(tree.is_ancestor(answered, rank), "{} answers for {}", answered, rank);
            prop_assert!(tree.depth(answered) <= max_depth);
        }
    }

    /// Requests to a service nobody implements always fail with exactly
    /// one ENOSYS from the root.
    #[test]
    fn unserved_topics_fail_once(size in 1u32..30, arity in 1u32..5, rank in 0u32..30) {
        let mut net = TestNet::new(size, arity, |_| vec![]);
        let rank = Rank(rank % size);
        let mut c = ClientCore::new(rank, 0);
        let req = c.request(Topic::new("nosuch.q").unwrap(), Value::Null, 0);
        net.client_send(rank, 0, req);
        let replies = net.take_client_msgs(rank, 0);
        prop_assert_eq!(replies.len(), 1);
        prop_assert_eq!(replies[0].header.errnum, errnum::ENOSYS);
    }

    /// Rank-addressed pings over the ring reach any target from any
    /// source, for any topology.
    #[test]
    fn ring_ping_total(size in 1u32..24, arity in 1u32..5,
                       pairs in prop::collection::vec((0u32..24, 0u32..24), 1..8)) {
        let mut net = TestNet::new(size, arity, |_| vec![]);
        for (from, to) in pairs {
            let from = Rank(from % size);
            let to = Rank(to % size);
            let mut c = ClientCore::new(from, 1);
            let req = c.request_to(to, Topic::new("cmb.ping").unwrap(), Value::object(), 0);
            net.client_send(from, 1, req);
            let replies = net.take_client_msgs(from, 1);
            prop_assert_eq!(replies.len(), 1);
            prop_assert_eq!(
                replies[0].payload.get("pong"),
                Some(&Value::from(to.0))
            );
        }
    }

    /// Events published from random ranks reach every subscribed client
    /// in identical (root-sequenced) order, regardless of topology.
    #[test]
    fn event_total_order(size in 2u32..24, arity in 1u32..5,
                         publishers in prop::collection::vec(0u32..24, 1..10)) {
        struct Bell;
        impl CommsModule for Bell {
            fn name(&self) -> &'static str {
                "bell"
            }
            fn handle_request(&mut self, ctx: &mut ModuleCtx<'_>, msg: Message) -> Handled {
                ctx.publish(Topic::from_static("bell.rang"), msg.payload.clone());
                ctx.respond(&msg, Value::object())
            }
        }
        let mut net = TestNet::new(size, arity, |_| vec![Box::new(Bell) as Box<dyn CommsModule>]);
        // Two observers at the extremes.
        let observers = [(Rank(0), 0u32), (Rank(size - 1), 1u32)];
        for (rank, cid) in observers {
            let mut c = ClientCore::new(rank, cid);
            let sub = c.request(
                Topic::new("cmb.sub").unwrap(),
                Value::from_pairs([("prefix", Value::from("bell"))]),
                0,
            );
            net.client_send(rank, cid, sub);
            let _ = net.take_client_msgs(rank, cid);
        }
        for (i, p) in publishers.iter().enumerate() {
            let rank = Rank(p % size);
            let mut c = ClientCore::new(rank, 9);
            let req = c.request(Topic::new("bell.ring").unwrap(), Value::Int(i as i64), 0);
            net.client_send(rank, 9, req);
            let _ = net.take_client_msgs(rank, 9);
        }
        let seq_of = |msgs: &[Message]| -> Vec<(u64, Value)> {
            msgs.iter().map(|m| (m.header.id.seq, m.payload.value().clone())).collect()
        };
        let a = seq_of(&net.take_client_msgs(Rank(0), 0));
        let b = seq_of(&net.take_client_msgs(Rank(size - 1), 1));
        prop_assert_eq!(a.len(), publishers.len());
        prop_assert_eq!(&a, &b, "identical delivery order everywhere");
        prop_assert!(a.windows(2).all(|w| w[0].0 < w[1].0), "strictly increasing seq");
    }
}
