//! The error contract, executed: every `(method, code)` a `methods!` row
//! of `flux-proto` declares is produced here by a real request to a
//! `standard_modules` session, from the root and from a leaf, and the
//! reply's `errnum` compared for equality. The rows come from
//! `flux_proto::methods()`; this file owns only *how* each is provoked,
//! and fails on a row with no case (a declared code nothing produces)
//! as on a case with no row. The other half of the contract — no
//! handler answers a code its row lacks — is the assertion in the
//! broker's `respond_err`, which every reply sent here passes through.

#![allow(clippy::disallowed_methods, reason = "a test builds its topics directly")]

use flux_broker::client::ClientCore;
use flux_broker::testing::TestNet;
use flux_modules::standard_modules;
use flux_proto::{spec_of, MethodKind};
use flux_value::Value;
use flux_wire::errnum::{self, EAGAIN, EINVAL, EISDIR, ENAMETOOLONG, ENOENT, ENOTDIR};
use flux_wire::{Message, Rank, Topic};
use std::collections::BTreeMap;

/// Session size; requests go in at the root and at a leaf two hops down.
const SIZE: u32 = 7;
const RANKS: [Rank; 2] = [Rank(0), Rank(5)];

/// How one declared refusal is provoked.
enum Case {
    /// `setup` requests (each must succeed), then the request that must
    /// be refused, all from one client.
    Refused { setup: Vec<(&'static str, Value)>, payload: Value },
    /// No request of the method's own provokes it: its handler passes
    /// on what one of these methods refused. Each must declare the code
    /// (and so has a `Refused` case here); the hop itself is injected by
    /// a unit test beside the handler.
    RelayOf(&'static [&'static str]),
}

fn refused<const N: usize>(pairs: [(&'static str, Value); N]) -> Case {
    Case::Refused { setup: Vec::new(), payload: Value::from_pairs(pairs) }
}

/// After `t.leaf = 1` is committed, `kvs.get` of `key` must be refused.
fn get_beside_a_leaf(key: &str) -> Case {
    let put = Value::from_pairs([("k", Value::from("t.leaf")), ("v", Value::Int(1))]);
    Case::Refused {
        setup: vec![("kvs.put", put), ("kvs.commit", Value::object())],
        payload: Value::from_pairs([("k", Value::from(key))]),
    }
}

/// A name the KVS refuses as too long, whatever key it is built into.
fn long_name() -> Value {
    Value::from("g".repeat(5000))
}

fn cases() -> Vec<(&'static str, u32, Case)> {
    let s = |text: &str| Value::from(text);
    let n = Value::Int;
    let ranks = |r: &[i64]| Value::from(r.to_vec());
    let run_on = |targets| refused([("jobid", n(1)), ("cmd", s("echo")), ("targets", targets)]);
    // A well-formed id of an object no broker holds.
    let absent = "0123456789abcdef0123456789abcdef01234567";
    vec![
        ("cmb.sub", EINVAL, refused([])),
        ("cmb.unsub", EINVAL, refused([])),
        ("log.msg", EINVAL, refused([("level", n(6))])),
        ("mon.add", EINVAL, refused([("name", s("s"))])),
        ("mon.add", ENAMETOOLONG, refused([("name", long_name()), ("metric", s("load"))])),
        ("group.join", EINVAL, refused([("name", s("a.b"))])),
        ("group.join", ENAMETOOLONG, refused([("name", long_name())])),
        ("group.leave", EINVAL, refused([])),
        ("group.leave", ENAMETOOLONG, refused([("name", long_name())])),
        ("group.info", EINVAL, refused([("name", s(""))])),
        ("group.info", ENAMETOOLONG, refused([("name", long_name())])),
        ("barrier.enter", EINVAL, refused([("name", s("b")), ("nprocs", n(0))])),
        ("kvs.put", EINVAL, refused([("k", s("a..b"))])),
        ("kvs.put", ENAMETOOLONG, refused([("k", long_name())])),
        ("kvs.unlink", EINVAL, refused([])),
        ("kvs.unlink", ENAMETOOLONG, refused([("k", long_name())])),
        ("kvs.commit", EINVAL, Case::RelayOf(&["kvs.push"])),
        ("kvs.push", EINVAL, refused([("tuples", n(1))])),
        // A batch for a shard no broker on its path masters.
        ("kvs.push", EINVAL, refused([("shard", n(3))])),
        ("kvs.fence", EINVAL, refused([("name", s("f")), ("nprocs", n(0))])),
        ("kvs.get", EINVAL, refused([])),
        ("kvs.get", ENAMETOOLONG, refused([("k", long_name())])),
        ("kvs.get", ENOENT, refused([("k", s("no.such.key"))])),
        ("kvs.get", ENOTDIR, get_beside_a_leaf("t.leaf.below")),
        ("kvs.get", EISDIR, get_beside_a_leaf("t")),
        ("kvs.load", EINVAL, refused([("id", s("zz"))])),
        ("kvs.load", ENOENT, refused([("id", s(absent))])),
        ("kvs.get_version", EINVAL, refused([("shard", n(99))])),
        ("kvs.wait_version", EINVAL, refused([])),
        ("kvs.watch", EINVAL, refused([])),
        ("kvs.unwatch", EINVAL, refused([])),
        ("wexec.run", EINVAL, refused([("jobid", n(1)), ("cmd", s("echo")), ("targets", n(3))])),
        // Target lists no job could finish on: each broker runs a job's
        // task at most once, and only a broker of the session runs one.
        ("wexec.run", EINVAL, run_on(ranks(&[1, 1]))),
        ("wexec.run", EINVAL, run_on(ranks(&[SIZE.into()]))),
        ("wexec.run", EINVAL, run_on(Value::Array(vec![s("1")]))),
        ("wexec.run", EINVAL, run_on(ranks(&[]))),
        ("wexec.kill", EINVAL, refused([])),
        ("resvc.alloc", EINVAL, refused([("jobid", n(1)), ("nnodes", n(0))])),
        ("resvc.alloc", EAGAIN, refused([("jobid", n(1)), ("nnodes", n(i64::from(SIZE) + 1))])),
        ("resvc.free", EINVAL, refused([])),
        ("resvc.free", ENOENT, refused([("jobid", n(77))])),
    ]
}

/// One client of a fresh session.
struct Session {
    net: TestNet,
    rank: Rank,
    client: ClientCore,
}

impl Session {
    fn at(rank: Rank) -> Session {
        Session {
            net: TestNet::new(SIZE, 2, |_| standard_modules()),
            rank,
            client: ClientCore::new(rank, 0),
        }
    }

    /// Sends one request and fires timers (batch windows, heartbeats)
    /// until its reply arrives.
    fn rpc(&mut self, topic: &str, payload: Value) -> Message {
        let req = self.client.request(Topic::new(topic).expect("valid topic"), payload, 0);
        self.net.client_send(self.rank, 0, req);
        for _ in 0..500 {
            if let Some(reply) = self.net.take_client_msgs(self.rank, 0).into_iter().next() {
                return reply;
            }
            assert!(self.net.fire_next_timer(), "{topic} from {}: never answered", self.rank);
        }
        panic!("{topic} from {}: no reply within 500 timers", self.rank);
    }
}

fn name(code: u32) -> String {
    format!("{code} ({})", errnum::strerror(code))
}

#[test]
fn every_declared_refusal_is_produced_by_a_request_from_the_root_and_from_a_leaf() {
    let mut table: BTreeMap<_, Vec<Case>> = BTreeMap::new();
    for (topic, code, case) in cases() {
        table.entry((topic, code)).or_default().push(case);
    }
    let mut failures = Vec::new();
    for spec in flux_proto::methods().into_iter().filter(|s| s.kind != MethodKind::OneWay) {
        for &code in spec.declared_errors {
            let cases = table.remove(&(spec.topic, code)).unwrap_or_default();
            if cases.is_empty() {
                failures.push(format!(
                    "{} declares {}, and no case here produces it: add one, or drop the declaration",
                    spec.topic,
                    name(code)
                ));
            }
            for case in cases {
                match case {
                    Case::RelayOf(upstream) => {
                        for up in upstream {
                            let declares =
                                spec_of(up).is_some_and(|s| s.declared_errors.contains(&code));
                            if !declares {
                                failures.push(format!(
                                    "{} {} is listed as relayed from {up}, \
                                     which does not declare it",
                                    spec.topic,
                                    name(code)
                                ));
                            }
                        }
                    }
                    Case::Refused { setup, payload } => {
                        for rank in RANKS {
                            let mut s = Session::at(rank);
                            for (topic, payload) in &setup {
                                let reply = s.rpc(topic, payload.clone());
                                let topic_of = spec.topic;
                                assert!(!reply.is_error(), "setup {topic} for {topic_of}: {reply:?}");
                            }
                            let got = s.rpc(spec.topic, payload.clone()).header.errnum;
                            if got != code {
                                failures.push(format!(
                                    "{} {} from {rank}: expected {}, got {}",
                                    spec.topic,
                                    payload.to_json(),
                                    name(code),
                                    name(got)
                                ));
                            }
                        }
                    }
                }
            }
        }
    }
    for (topic, code) in table.keys() {
        failures.push(format!("a case for {topic} {}, which the registry does not declare", name(*code)));
    }
    assert!(failures.is_empty(), "{} refusal(s) out of contract:\n  {}", failures.len(), failures.join("\n  "));
}

/// `group.info` used to relay whatever its `kvs.get` answered, declared
/// or not: `ENOTDIR` (20) with a value sitting where the membership
/// directory belongs, `ENAMETOOLONG` (36) for a name that makes a key
/// the store refuses — against a declared set of `[EINVAL]`.
#[test]
fn group_info_answers_what_it_declares_whatever_its_kvs_get_relays() {
    let declared = spec_of("group.info").expect("registered").declared_errors;
    for rank in RANKS {
        let mut s = Session::at(rank);
        s.rpc("kvs.put", Value::from_pairs([("k", Value::from("groups.g")), ("v", Value::Int(1))]));
        assert!(!s.rpc("kvs.commit", Value::object()).is_error());
        let not_a_dir = s.rpc("group.info", Value::from_pairs([("name", Value::from("g"))]));
        assert_eq!(not_a_dir.header.errnum, EINVAL, "from {rank}");
        let too_long = s.rpc("group.info", Value::from_pairs([("name", long_name())]));
        assert_eq!(too_long.header.errnum, ENAMETOOLONG, "from {rank}");
        assert!(declared.contains(&ENAMETOOLONG), "group.info declares {declared:?}");
        // An unknown group is still an empty group, not an error.
        let nobody = s.rpc("group.info", Value::from_pairs([("name", Value::from("nobody"))]));
        assert_eq!(nobody.payload.get("size"), Some(&Value::Int(0)), "from {rank}: {nobody:?}");
    }
}

/// `group.join` and `mon.add` staged their `kvs.put`, dropped its reply
/// and answered with the commit's: for a name the store refuses, the
/// success of a commit of nothing.
#[test]
fn a_write_the_store_refused_is_not_reported_as_done() {
    for rank in RANKS {
        for topic in ["group.join", "mon.add"] {
            let mut s = Session::at(rank);
            let payload = Value::from_pairs([("name", long_name()), ("metric", Value::from("load"))]);
            let reply = s.rpc(topic, payload);
            assert_eq!(reply.header.errnum, ENAMETOOLONG, "{topic} from {rank}: {reply:?}");
            let samplers = s.rpc("mon.list", Value::object());
            assert_eq!(samplers.payload.get("samplers"), Some(&Value::object()), "from {rank}");
        }
    }
}
