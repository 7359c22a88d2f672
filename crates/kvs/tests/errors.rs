//! KVS protocol error paths: malformed payloads, wrong-type operations,
//! and unknown methods all produce a single, specific error response —
//! never a hang or a panic.

use flux_broker::client::ClientCore;
use flux_broker::testing::TestNet;
use flux_broker::CommsModule;
use flux_kvs::KvsModule;
use flux_value::Value;
use flux_wire::{errnum, Message, Rank, Topic};

fn net(size: u32) -> TestNet {
    TestNet::new(size, 2, |_| vec![Box::new(KvsModule::new()) as Box<dyn CommsModule>])
}

fn rpc(net: &mut TestNet, rank: Rank, msg: Message) -> Message {
    net.client_send(rank, 0, msg);
    let mut msgs = net.take_client_msgs(rank, 0);
    for _ in 0..500 {
        if !msgs.is_empty() {
            break;
        }
        if !net.fire_next_timer() {
            break;
        }
        msgs.extend(net.take_client_msgs(rank, 0));
    }
    assert_eq!(msgs.len(), 1, "exactly one reply");
    msgs.remove(0)
}

fn req(rank: Rank, topic: &str, payload: Value) -> Message {
    ClientCore::new(rank, 0).request(Topic::new(topic).unwrap(), payload, 0)
}

#[test]
fn malformed_payloads_fail_einval() {
    let mut net = net(3);
    let cases = [
        ("kvs.put", Value::object()),                                   // no key
        ("kvs.put", Value::from_pairs([("k", Value::Int(5))])),         // non-string key
        ("kvs.put", Value::from_pairs([("k", Value::from("a..b"))])),   // invalid key
        ("kvs.get", Value::Null),                                       // no key
        ("kvs.fence", Value::from_pairs([("name", Value::from("f"))])), // no nprocs
        ("kvs.wait_version", Value::object()),                          // no version
        ("kvs.watch", Value::object()),                                 // no key
        ("kvs.load", Value::from_pairs([("id", Value::from("zz"))])),   // bad sha
        ("kvs.unwatch", Value::object()),                               // no key
        // A commit batch naming a shard the tree root does not master.
        ("kvs.push", Value::parse(r#"{"objects":{},"shard":1,"tuples":[]}"#).unwrap()),
    ];
    for (topic, payload) in cases {
        let resp = rpc(&mut net, Rank(2), req(Rank(2), topic, payload.clone()));
        assert_eq!(
            resp.header.errnum,
            errnum::EINVAL,
            "{topic} with {payload} must fail EINVAL, got {resp:?}"
        );
    }
}

#[test]
fn unknown_kvs_method_fails_enosys() {
    let mut net = net(3);
    let resp = rpc(&mut net, Rank(1), req(Rank(1), "kvs.frobnicate", Value::object()));
    assert_eq!(resp.header.errnum, errnum::ENOSYS);
}

#[test]
fn load_of_unknown_object_fails_enoent_at_master() {
    let mut net = net(3);
    // A valid-looking but absent SHA1.
    let absent = flux_hash::ObjectId::hash(b"never stored").to_hex();
    let resp = rpc(
        &mut net,
        Rank(2),
        req(Rank(2), "kvs.load", Value::from_pairs([("id", Value::from(absent))])),
    );
    assert_eq!(resp.header.errnum, errnum::ENOENT);
}

#[test]
fn traversal_through_a_value_fails_enotdir() {
    let mut net = net(3);
    let _ = rpc(
        &mut net,
        Rank(1),
        req(
            Rank(1),
            "kvs.put",
            Value::from_pairs([("k", Value::from("scalar")), ("v", Value::Int(1))]),
        ),
    );
    let _ = rpc(&mut net, Rank(1), req(Rank(1), "kvs.commit", Value::object()));
    let resp = rpc(
        &mut net,
        Rank(1),
        req(Rank(1), "kvs.get", Value::from_pairs([("k", Value::from("scalar.below"))])),
    );
    assert_eq!(resp.header.errnum, errnum::ENOTDIR);
}

#[test]
fn errors_do_not_poison_the_session() {
    // After a barrage of malformed requests, normal operation proceeds.
    let mut net = net(7);
    for _ in 0..20 {
        let _ = rpc(&mut net, Rank(5), req(Rank(5), "kvs.put", Value::Null));
        let _ = rpc(&mut net, Rank(5), req(Rank(5), "kvs.bogus", Value::Null));
    }
    let _ = rpc(
        &mut net,
        Rank(5),
        req(
            Rank(5),
            "kvs.put",
            Value::from_pairs([("k", Value::from("ok.key")), ("v", Value::Int(7))]),
        ),
    );
    let resp = rpc(&mut net, Rank(5), req(Rank(5), "kvs.commit", Value::object()));
    assert!(!resp.is_error());
    let resp = rpc(
        &mut net,
        Rank(6),
        req(Rank(6), "kvs.get", Value::from_pairs([("k", Value::from("ok.key"))])),
    );
    assert_eq!(resp.payload.get("v"), Some(&Value::Int(7)));
}

#[test]
fn commit_with_no_pending_puts_is_a_valid_empty_commit() {
    let mut net = net(3);
    let resp = rpc(&mut net, Rank(2), req(Rank(2), "kvs.commit", Value::object()));
    assert!(!resp.is_error());
    let cut = flux_kvs::msg::decode_cut(&resp.payload);
    let v1: Vec<u64> = cut.roots.iter().map(|r| r.version).collect();
    assert_eq!(v1, [1], "empty commits still advance the version");
}

#[test]
fn wrong_value_in_dirty_object_manifest_is_rejected() {
    // A kvs.push whose object manifest lies about a hash must not be
    // applied (the master verifies content addresses).
    let mut net = net(3);
    let bogus_id = flux_hash::ObjectId::hash(b"claimed").to_hex();
    let obj = flux_kvs::KvsObject::Val(Value::from("actual")).to_value();
    let push = Value::from_pairs([
        (
            "tuples",
            Value::Array(vec![Value::from_pairs([
                ("k", Value::from("forged")),
                ("s", Value::from(bogus_id.as_str())),
            ])]),
        ),
        ("objects", Value::from_pairs([(bogus_id.as_str(), obj)])),
    ]);
    let resp = rpc(&mut net, Rank(1), req(Rank(1), "kvs.push", push));
    assert_eq!(resp.header.errnum, errnum::EINVAL, "{resp:?}");
}

#[test]
fn load_with_an_out_of_range_shard_fails_einval() {
    // `shard` arrives from outside; trusting it sent the tree root a
    // rank-addressed load to a rank that does not exist, re-sent on every
    // heartbeat and never answered.
    let cfg = flux_kvs::KvsConfig { shards: 2, ..Default::default() };
    let mut net = TestNet::new(4, 2, move |_| {
        vec![Box::new(KvsModule::with_config(cfg)) as Box<dyn CommsModule>]
    });
    let absent = flux_hash::ObjectId::hash(b"never stored").to_hex();
    let load = |shard: i64| {
        Value::from_pairs([("id", Value::from(absent.as_str())), ("shard", Value::Int(shard))])
    };
    let resp = rpc(&mut net, Rank(3), req(Rank(3), "kvs.load", load(99)));
    assert_eq!(resp.header.errnum, errnum::EINVAL);
    let resp = rpc(&mut net, Rank(3), req(Rank(3), "kvs.load", load(1)));
    assert_eq!(resp.header.errnum, errnum::ENOENT, "in range: the master knows it is absent");
}
