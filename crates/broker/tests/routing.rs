//! Broker routing semantics, exercised over an in-memory session.

#![allow(clippy::disallowed_methods, reason = "a test builds its topics directly")]

use flux_broker::client::{ClientCore, Delivery};
use flux_broker::testing::TestNet;
use flux_broker::{
    Broker, BrokerConfig, ClientId, CommsModule, Handled, Input, ModuleCtx, Output, RankOverlay,
};
use flux_value::Value;
use flux_wire::{errnum, Message, Rank, Topic};

/// A module that answers `echo.*` with its rank and the request payload.
struct Echo;

impl CommsModule for Echo {
    fn name(&self) -> &'static str {
        "echo"
    }

    fn handle_request(&mut self, ctx: &mut ModuleCtx<'_>, msg: Message) -> Handled {
        let payload = Value::from_pairs([
            ("rank", Value::from(ctx.rank().0)),
            ("echo", msg.payload.value().clone()),
        ]);
        ctx.respond(&msg, payload)
    }
}

/// A module that publishes an event when asked.
struct Bell;

impl CommsModule for Bell {
    fn name(&self) -> &'static str {
        "bell"
    }

    fn handle_request(&mut self, ctx: &mut ModuleCtx<'_>, msg: Message) -> Handled {
        ctx.publish(Topic::from_static("bell.rung"), msg.payload.clone());
        ctx.respond(&msg, Value::object())
    }
}

fn topic(s: &str) -> Topic {
    Topic::new(s).unwrap()
}

/// Sends `req` from (rank, client) and returns the single response.
fn roundtrip(net: &mut TestNet, rank: Rank, client: u32, req: Message) -> Message {
    net.client_send(rank, client, req);
    let msgs = net.take_client_msgs(rank, client);
    assert_eq!(msgs.len(), 1, "expected exactly one response, got {msgs:?}");
    msgs.into_iter().next().unwrap()
}

#[test]
fn local_module_answers_client() {
    let mut net = TestNet::new(1, 2, |_| vec![Box::new(Echo)]);
    let mut c = ClientCore::new(Rank(0), 0);
    let req = c.request(topic("echo.hi"), Value::from("x"), 1);
    let resp = roundtrip(&mut net, Rank(0), 0, req);
    assert_eq!(resp.payload.get("rank"), Some(&Value::Int(0)));
    assert_eq!(resp.payload.get("echo"), Some(&Value::from("x")));
    assert!(matches!(c.deliver(resp), Delivery::Response { tag: 1, .. }));
}

#[test]
fn request_routes_upstream_to_first_match() {
    // Echo loaded ONLY at the root: a leaf client's request must climb the
    // tree and the response must retrace to the right client.
    let mut net = TestNet::new(15, 2, |r| {
        if r.is_root() {
            vec![Box::new(Echo) as Box<dyn CommsModule>]
        } else {
            vec![]
        }
    });
    let mut c = ClientCore::new(Rank(11), 3);
    let req = c.request(topic("echo.hi"), Value::Int(7), 9);
    let resp = roundtrip(&mut net, Rank(11), 3, req);
    assert_eq!(resp.payload.get("rank"), Some(&Value::Int(0)), "handled at root");
    assert!(matches!(c.deliver(resp), Delivery::Response { tag: 9, .. }));
}

#[test]
fn module_at_interior_depth_intercepts() {
    // Echo loaded at depth <= 1 (ranks 0,1,2 in a binary tree of 15):
    // requests from rank 11 (under rank 2's subtree... 11 -> 5 -> 2) must
    // be answered at rank 2, not the root.
    let mut net = TestNet::new(15, 2, |r| {
        if r.0 <= 2 {
            vec![Box::new(Echo) as Box<dyn CommsModule>]
        } else {
            vec![]
        }
    });
    let req = ClientCore::new(Rank(11), 0).request(topic("echo.x"), Value::Null, 0);
    let resp = roundtrip(&mut net, Rank(11), 0, req);
    assert_eq!(resp.payload.get("rank"), Some(&Value::Int(2)));
}

#[test]
fn unmatched_topic_fails_with_enosys_at_root() {
    let mut net = TestNet::new(7, 2, |_| vec![]);
    let req = ClientCore::new(Rank(6), 0).request(topic("nosuch.svc"), Value::Null, 0);
    let resp = roundtrip(&mut net, Rank(6), 0, req);
    assert!(resp.is_error());
    assert_eq!(resp.header.errnum, errnum::ENOSYS);
}

#[test]
fn ping_rank_addressed_over_ring() {
    let mut net = TestNet::new(8, 2, |_| vec![]);
    let mut c = ClientCore::new(Rank(2), 0);
    let req = c.request_to(Rank(6), topic("cmb.ping"), Value::object(), 5);
    let resp = roundtrip(&mut net, Rank(2), 0, req);
    assert_eq!(resp.payload.get("pong"), Some(&Value::Int(6)), "answered by rank 6");
}

#[test]
fn ping_every_rank_from_every_rank() {
    let size = 6u32;
    let mut net = TestNet::new(size, 2, |_| vec![]);
    for from in 0..size {
        for to in 0..size {
            let mut c = ClientCore::new(Rank(from), 0);
            let req = c.request_to(Rank(to), topic("cmb.ping"), Value::object(), 0);
            let resp = roundtrip(&mut net, Rank(from), 0, req);
            assert_eq!(resp.payload.get("pong"), Some(&Value::Int(i64::from(to))));
        }
    }
}

#[test]
fn info_reports_topology() {
    let mut net = TestNet::new(7, 2, |_| vec![Box::new(Echo)]);
    let req = ClientCore::new(Rank(5), 0).request(topic("cmb.info"), Value::Null, 0);
    let resp = roundtrip(&mut net, Rank(5), 0, req);
    assert_eq!(resp.payload.get("rank"), Some(&Value::Int(5)));
    assert_eq!(resp.payload.get("size"), Some(&Value::Int(7)));
    assert_eq!(resp.payload.get("depth"), Some(&Value::Int(2)));
    let modules = resp.payload.get("modules").unwrap().as_array().unwrap();
    assert_eq!(modules, [Value::from("echo")]);
}

#[test]
fn events_reach_all_subscribed_clients_in_order() {
    let mut net = TestNet::new(7, 2, |_| vec![Box::new(Bell)]);
    // Subscribe clients on three different brokers.
    for &(r, cid) in &[(0u32, 0u32), (3, 1), (6, 2)] {
        let sub = ClientCore::new(Rank(r), cid).request(
            topic("cmb.sub"),
            Value::from_pairs([("prefix", Value::from("bell"))]),
            0,
        );
        net.client_send(Rank(r), cid, sub);
        let _ = net.take_client_msgs(Rank(r), cid);
    }
    // Ring the bell twice from rank 5.
    for i in 0..2 {
        let req = ClientCore::new(Rank(5), 9).request(
            topic("bell.ring"),
            Value::Int(i),
            0,
        );
        net.client_send(Rank(5), 9, req);
        let _ = net.take_client_msgs(Rank(5), 9);
    }
    for &(r, cid) in &[(0u32, 0u32), (3, 1), (6, 2)] {
        let evs = net.take_client_msgs(Rank(r), cid);
        assert_eq!(evs.len(), 2, "client at rank {r}");
        assert_eq!(evs[0].payload, Value::Int(0));
        assert_eq!(evs[1].payload, Value::Int(1));
        // Root-stamped sequence numbers are strictly increasing.
        assert!(evs[0].header.id.seq < evs[1].header.id.seq);
        assert_eq!(evs[0].header.topic.as_str(), "bell.rung");
    }
}

#[test]
fn same_broker_client_fanout_is_ordered_by_client_id() {
    // Regression: client fan-out used to collect matching ids from a
    // HashMap into a scratch Vec and sort it per event; `client_subs` is
    // now an ordered map walked directly, so delivery order must come
    // out in client-id order no matter the subscription order.
    let mut b = Broker::new(BrokerConfig::new(Rank(0), 1), vec![]);
    let _ = b.start(0);
    for cid in [2u32, 0, 1] {
        let sub = ClientCore::new(Rank(0), cid).request(
            topic("cmb.sub"),
            Value::from_pairs([("prefix", Value::from("bell"))]),
            0,
        );
        let _ = b.handle(0, Input::FromClient { client: cid, msg: sub });
    }
    let outs = b.publish(0, topic("bell.rung"), Value::Int(7));
    let delivered: Vec<ClientId> = outs
        .iter()
        .filter_map(|o| match o {
            Output::ToClient { client, msg } if msg.header.topic.as_str() == "bell.rung" => {
                Some(*client)
            }
            _ => None,
        })
        .collect();
    assert_eq!(delivered, [0, 1, 2]);
}

#[test]
fn unsubscribe_stops_event_delivery() {
    let mut net = TestNet::new(3, 2, |_| vec![Box::new(Bell)]);
    let sub = ClientCore::new(Rank(1), 0).request(
        topic("cmb.sub"),
        Value::from_pairs([("prefix", Value::from("bell"))]),
        0,
    );
    net.client_send(Rank(1), 0, sub);
    let unsub = ClientCore::new(Rank(1), 0).request(
        topic("cmb.unsub"),
        Value::from_pairs([("prefix", Value::from("bell"))]),
        0,
    );
    net.client_send(Rank(1), 0, unsub);
    let _ = net.take_client_msgs(Rank(1), 0);
    let ring = ClientCore::new(Rank(2), 0).request(topic("bell.ring"), Value::Null, 0);
    net.client_send(Rank(2), 0, ring);
    assert!(net.take_client_msgs(Rank(1), 0).is_empty());
}

#[test]
fn two_clients_same_broker_get_own_responses() {
    let mut net = TestNet::new(3, 2, |r| {
        if r.is_root() {
            vec![Box::new(Echo) as Box<dyn CommsModule>]
        } else {
            vec![]
        }
    });
    let mut c0 = ClientCore::new(Rank(2), 0);
    let mut c1 = ClientCore::new(Rank(2), 1);
    let r0 = c0.request(topic("echo.a"), Value::from("zero"), 10);
    let r1 = c1.request(topic("echo.a"), Value::from("one"), 11);
    net.client_send(Rank(2), 0, r0);
    net.client_send(Rank(2), 1, r1);
    let m0 = net.take_client_msgs(Rank(2), 0);
    let m1 = net.take_client_msgs(Rank(2), 1);
    assert_eq!(m0.len(), 1);
    assert_eq!(m1.len(), 1);
    assert_eq!(m0[0].payload.get("echo"), Some(&Value::from("zero")));
    assert_eq!(m1[0].payload.get("echo"), Some(&Value::from("one")));
    assert!(matches!(c0.deliver(m0[0].clone()), Delivery::Response { tag: 10, .. }));
    assert!(matches!(c1.deliver(m1[0].clone()), Delivery::Response { tag: 11, .. }));
}

#[test]
fn ring_skips_dead_ranks_after_live_event() {
    let mut net = TestNet::new(6, 2, |_| vec![Box::new(Bell)]);
    // Publish a live.down for rank 3 (normally the live module does this).
    let ring_req = |from: u32, to: u32| {
        ClientCore::new(Rank(from), 0).request_to(
            Rank(to),
            topic("cmb.ping"),
            Value::object(),
            0,
        )
    };
    // First verify 2 -> 4 works through 3.
    let resp = roundtrip(&mut net, Rank(2), 0, ring_req(2, 4));
    assert_eq!(resp.payload.get("pong"), Some(&Value::Int(4)));

    // Kill rank 3 and inform the session.
    net.kill(Rank(3));
    // Inject the liveness event by having a module publish it: use bell's
    // publish path via a crafted topic is not possible, so emulate the
    // live module by sending the event from the root broker directly.
    // The root sequences everything, so publish from a root-attached
    // client via the bell module with topic bell.rung is not "live.down";
    // instead we use the dedicated helper below.
    net.publish_from_root(topic("live.down"), Value::from_pairs([("rank", Value::Int(3))]));

    // 2 -> 4 must still work, skipping dead rank 3 on the ring.
    let resp = roundtrip(&mut net, Rank(2), 0, ring_req(2, 4));
    assert_eq!(resp.payload.get("pong"), Some(&Value::Int(4)));
}

#[test]
fn tree_requests_skip_dead_interior_nodes() {
    // Binary tree of 15; path 11 -> 5 -> 2 -> 0. Kill rank 5; requests
    // from 11 must reach the root Echo via the effective parent (2).
    let mut net = TestNet::new(15, 2, |r| {
        if r.is_root() {
            vec![Box::new(Echo) as Box<dyn CommsModule>]
        } else {
            vec![]
        }
    });
    net.kill(Rank(5));
    net.publish_from_root(topic("live.down"), Value::from_pairs([("rank", Value::Int(5))]));
    let req = ClientCore::new(Rank(11), 0).request(topic("echo.x"), Value::Null, 0);
    let resp = roundtrip(&mut net, Rank(11), 0, req);
    assert_eq!(resp.payload.get("rank"), Some(&Value::Int(0)));
}

/// Both overlays the bench cells run: the default ring and, on every
/// sharded cell, the fully connected one.
const OVERLAYS: [RankOverlay; 2] = [RankOverlay::Ring, RankOverlay::Full];

fn overlay_net(size: u32, overlay: RankOverlay) -> TestNet {
    TestNet::with_config(size, move |r| BrokerConfig::new(r, size).with_rank_overlay(overlay), |_| {
        vec![]
    })
}

#[test]
fn rank_overlay_pings_all_pairs() {
    let size = 10u32;
    for overlay in OVERLAYS {
        let mut net = overlay_net(size, overlay);
        for from in 0..size {
            for to in 0..size {
                let mut c = ClientCore::new(Rank(from), 0);
                let req = c.request_to(Rank(to), topic("cmb.ping"), Value::object(), 0);
                let resp = roundtrip(&mut net, Rank(from), 0, req);
                assert_eq!(
                    resp.payload.get("pong"),
                    Some(&Value::Int(i64::from(to))),
                    "{overlay:?} {from}->{to}"
                );
            }
        }
    }
}

#[test]
fn rank_overlay_routes_around_dead_interior() {
    for overlay in OVERLAYS {
        let mut net = overlay_net(15, overlay);
        net.kill(Rank(5));
        net.publish_from_root(topic("live.down"), Value::from_pairs([("rank", Value::Int(5))]));
        // 11 (orphan of 5) pings 6: the ring passes dead rank 5 on its
        // way round and must skip it; the full overlay goes straight.
        let req = ClientCore::new(Rank(11), 0).request_to(
            Rank(6),
            topic("cmb.ping"),
            Value::object(),
            0,
        );
        let resp = roundtrip(&mut net, Rank(11), 0, req);
        assert_eq!(resp.payload.get("pong"), Some(&Value::Int(6)), "{overlay:?}");
    }
}

#[test]
fn rank_addressed_request_to_dead_rank_fails_ehostdown() {
    for overlay in OVERLAYS {
        let mut net = overlay_net(8, overlay);
        net.kill(Rank(6));
        net.publish_from_root(topic("live.down"), Value::from_pairs([("rank", Value::Int(6))]));
        let req = ClientCore::new(Rank(3), 0).request_to(
            Rank(6),
            topic("cmb.ping"),
            Value::object(),
            0,
        );
        let resp = roundtrip(&mut net, Rank(3), 0, req);
        assert_eq!(resp.header.errnum, errnum::EHOSTDOWN, "{overlay:?}");
    }
}

/// `one_way` disposes of requests nobody answers; the registry says
/// `hb.epoch` is an RPC, so a handler that tries it there is caught.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "is an RPC")]
fn one_way_on_an_rpc_method_trips() {
    struct Mute;
    impl CommsModule for Mute {
        fn name(&self) -> &'static str {
            "hb"
        }
        fn handle_request(&mut self, ctx: &mut ModuleCtx<'_>, msg: Message) -> Handled {
            ctx.one_way(&msg)
        }
    }
    let mut net = TestNet::new(1, 2, |_| vec![Box::new(Mute)]);
    let mut c = ClientCore::new(Rank(0), 0);
    net.client_send(Rank(0), 0, c.request(topic("hb.epoch"), Value::object(), 1));
}

/// Answers every `hb.*` request with one fixed error code, and returns
/// what the client got for `method`.
#[cfg(debug_assertions)]
fn refused_with(method: &str, code: u32) -> Message {
    struct Refuser(u32);
    impl CommsModule for Refuser {
        fn name(&self) -> &'static str {
            "hb"
        }
        fn handle_request(&mut self, ctx: &mut ModuleCtx<'_>, msg: Message) -> Handled {
            ctx.respond_err(&msg, self.0)
        }
    }
    let mut net = TestNet::new(1, 2, move |_| vec![Box::new(Refuser(code))]);
    let mut c = ClientCore::new(Rank(0), 0);
    roundtrip(&mut net, Rank(0), 0, c.request(topic(method), Value::object(), 1))
}

/// `hb.epoch` declares no refusal, so a handler answering it `EPERM`
/// is caught where the answer is sent, with both named.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "hb.epoch refused with errnum 1 (operation not permitted)")]
fn an_undeclared_code_on_a_declared_topic_trips() {
    refused_with("hb.epoch", errnum::EPERM);
}

/// A topic no table declares has no refusals of its own either.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "hb.nope refused with errnum 22")]
fn a_handler_code_on_an_undeclared_topic_trips() {
    refused_with("hb.nope", errnum::EINVAL);
}

/// What any RPC may answer needs no declaration: the transport's codes
/// and `ENOSYS`, on a declared topic and on an undeclared one.
#[test]
#[cfg(debug_assertions)]
fn transport_codes_and_enosys_pass_undeclared() {
    for method in ["hb.epoch", "hb.nope"] {
        for &code in flux_proto::TRANSPORT_ERRORS.iter().chain(&[errnum::ENOSYS]) {
            assert_eq!(refused_with(method, code).header.errnum, code, "{method}");
        }
    }
}
