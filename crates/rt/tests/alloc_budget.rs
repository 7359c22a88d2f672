//! Allocation budgets: how many times each warm per-message operation of
//! the broker core calls the allocator, pinned exactly.
//!
//! The broker core is sans-io so that one code base serves the simulator
//! at 8192 ranks and the live runtimes; at those rates an allocation on a
//! per-message path is paid millions of times. This binary installs
//! `flux_sys::CountingAlloc`, whose counter is per thread, so tests
//! running in parallel do not see each other. Each row runs its operation
//! twice to warm it, then [`REPS`] times counted; every repetition must
//! make the same number of allocations, and that number must equal the
//! row's budget. Inputs are built and outputs dropped outside the count.
//! "Warm" means steady state: every request is answered, so no table the
//! operation touches is still growing.
//!
//! The rows that build payload objects also pin the bytes their
//! allocations ask for ([`pin_bytes`]): an object that goes back to
//! costing more than its entries fails there while its count stays.
//!
//! A failure names the row, the budget and what was measured. A count
//! above the budget is a new allocation on that path: remove it, or raise
//! the budget in the same change that explains why. A count below it is
//! an improvement: lower the budget to match. Bytes are read the same way.

use flux_broker::client::ClientCore;
use flux_broker::reduce::{Partial, Reduction};
use flux_broker::{Broker, BrokerConfig, CommsModule, Input, Output, RankOverlay};
use flux_hash::{ObjectId, Sha1};
use flux_kvs::{KvsModule, KvsObject};
use flux_modules::LogModule;
use flux_proto::{CmbMethod, Event, KvsMethod, LogMethod};
use flux_rt::script::{Op, ScriptClient};
use flux_rt::sim::SimSession;
use flux_sys::Allocs;
use flux_sim::{Actor, ActorId, Ctx, Engine, NetParams};
use flux_value::Value;
use flux_wire::frame::{read_frame_into, write_frame_into, MAX_FRAME};
use flux_wire::{Message, MsgId, Plane, Rank};
use std::cell::RefCell;

#[global_allocator]
static ALLOC: flux_sys::CountingAlloc = flux_sys::CountingAlloc;

/// Counted repetitions per row.
const REPS: usize = 100;

/// Runs `op` on inputs from `next`: twice to warm, then [`REPS`] times
/// counting only `op`'s allocations, and returns what each repetition
/// measured, having asserted they all agree.
fn measure<I, O>(row: &str, mut next: impl FnMut() -> I, mut op: impl FnMut(I) -> O) -> Allocs {
    for _ in 0..2 {
        drop(op(next()));
    }
    let mut counts = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let input = next();
        let (out, n) = flux_sys::count(|| op(input));
        drop(out);
        counts.push(n);
    }
    let measured = counts[0];
    assert!(
        counts.iter().all(|&n| n == measured),
        "allocation budget `{row}`: repetitions disagree, so the row is not warm: {counts:?}"
    );
    measured
}

/// [`measure`]s `op` and asserts each repetition allocates `budget` times.
fn pin<I, O>(row: &str, budget: u64, next: impl FnMut() -> I, op: impl FnMut(I) -> O) {
    let measured = measure(row, next, op).calls;
    assert_eq!(
        measured, budget,
        "allocation budget `{row}`: expected {budget}, measured {measured}"
    );
}

/// [`pin`], and the bytes those allocations ask for pinned as well.
fn pin_bytes<I, O>(
    row: &str,
    budget: u64,
    bytes: u64,
    next: impl FnMut() -> I,
    op: impl FnMut(I) -> O,
) {
    let Allocs { calls, bytes: asked } = measure(row, next, op);
    assert_eq!(calls, budget, "allocation budget `{row}`: expected {budget}, measured {calls}");
    assert_eq!(asked, bytes, "allocation bytes `{row}`: expected {bytes}, measured {asked}");
}

fn started(config: BrokerConfig, modules: Vec<Box<dyn CommsModule>>) -> Broker {
    let mut broker = Broker::new(config, modules);
    broker.start(0);
    broker
}

fn kvs() -> Vec<Box<dyn CommsModule>> {
    vec![Box::new(KvsModule::new())]
}

fn get_payload(key: &str) -> Value {
    Value::from_pairs([("k", Value::from(key))])
}

fn put(core: &mut ClientCore, key: &str, val: Value) -> Message {
    core.request(
        KvsMethod::Put.topic(),
        Value::from_pairs([("k", Value::from(key)), ("v", val)]),
        0,
    )
}

/// Hands `msg` to `broker` as client 0's request.
fn from_client(broker: &mut Broker, msg: Message) -> Vec<Output> {
    broker.handle(0, Input::FromClient { client: 0, msg })
}

/// A one-broker session whose `kvs` module masters the store and holds
/// `bench.k = 42`, committed.
fn master_with_key(core: &mut ClientCore) -> Broker {
    let mut broker = started(BrokerConfig::new(Rank(0), 1), kvs());
    from_client(&mut broker, put(core, "bench.k", Value::Int(42)));
    let commit = core.request(KvsMethod::Commit.topic(), Value::object(), 0);
    let reply = from_client(&mut broker, commit);
    assert!(matches!(&reply[..], [Output::ToClient { msg, .. }] if !msg.is_error()), "{reply:?}");
    broker
}

#[test]
fn wire_framing() {
    let mut core = ClientCore::new(Rank(0), 0);
    let msg = core.request(KvsMethod::Get.topic(), get_payload("bench.k"), 0);

    let mut buf = Vec::new();
    pin("Message::encode_into, reused buffer", 0, || (), |()| msg.encode_into(&mut buf));

    let (mut stream, mut scratch) = (Vec::new(), Vec::new());
    pin(
        "write_frame_into, reused scratch",
        0,
        || (),
        |()| {
            stream.clear();
            write_frame_into(&mut stream, &msg, MAX_FRAME, &mut scratch)
        },
    );

    // The warm-up reads leave `body` holding a frame, so each counted read
    // is a second frame through one buffer: the decode is all it costs.
    let mut body = Vec::new();
    pin_bytes(
        "read_frame_into, second frame through one buffer (kvs.get request)",
        6,
        183,
        || (),
        |()| read_frame_into(&mut &stream[..], MAX_FRAME, &mut body),
    );
}

/// Bounces one message between two actors until `left` runs out.
struct Bouncer {
    serve: Option<Message>,
    left: u64,
}

impl Actor for Bouncer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(msg) = self.serve.take() {
            ctx.send(1, msg);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ActorId, msg: Message) {
        if self.left > 0 {
            self.left -= 1;
            ctx.send(from, msg);
        }
    }
}

#[test]
fn sim_engine_steady_ping_pong() {
    let mut engine = Engine::new(NetParams::default());
    let (a, b) = (engine.add_node(), engine.add_node());
    let msg = Message::request(
        CmbMethod::Ping.topic(),
        MsgId { origin: Rank(0), seq: 1 },
        Rank(0),
        Value::object(),
    );
    engine.add_actor(a, Box::new(Bouncer { serve: Some(msg), left: u64::MAX }));
    engine.add_actor(b, Box::new(Bouncer { serve: None, left: u64::MAX }));
    // 100 events per repetition: 10 000 counted events in all.
    pin("sim Engine, two-actor ping-pong, per 100 events", 0, || (), |()| engine.run_budgeted(100));
}

#[test]
fn kvs_at_the_master() {
    let mut core = ClientCore::new(Rank(0), 0);
    // Shared: some rows commit between their counted calls.
    let master = RefCell::new(master_with_key(&mut core));
    let ask = |msg| from_client(&mut master.borrow_mut(), msg);

    pin_bytes(
        "kvs.get of a committed key at the rank-0 master",
        3,
        404,
        || core.request(KvsMethod::Get.topic(), get_payload("bench.k"), 0),
        ask,
    );
    pin_bytes(
        "kvs.get_version at the master",
        10,
        756,
        || core.request(KvsMethod::GetVersion.topic(), Value::object(), 0),
        ask,
    );

    // Each put is committed before the next, so the write-back table
    // holds at most one tuple and never grows.
    let mut staged = false;
    pin(
        "kvs.put at the master",
        9,
        || {
            if staged {
                ask(core.request(KvsMethod::Commit.topic(), Value::object(), 0));
            }
            staged = true;
            put(&mut core, "bench.k", Value::Int(42))
        },
        ask,
    );
    pin(
        "kvs.commit of one tuple at the master",
        51,
        || {
            ask(put(&mut core, "bench.k", Value::Int(42)));
            core.request(KvsMethod::Commit.topic(), Value::object(), 0)
        },
        ask,
    );

    // A `kvs.load` from child rank 1 for the committed value object.
    let id = KvsObject::Val(Value::Int(42)).id().to_hex();
    let load = Value::from_pairs([("id", Value::from(id.as_str())), ("shard", Value::from(0i64))]);
    let mut seq = 0;
    pin_bytes(
        "kvs.load served at the master",
        3,
        404,
        || {
            seq += 1;
            Message::request(
                KvsMethod::Load.topic(),
                MsgId { origin: Rank(1), seq },
                Rank(1),
                load.clone(),
            )
        },
        |msg| {
            master
                .borrow_mut()
                .handle(0, Input::FromBroker { plane: Plane::Tree, from: Rank(1), msg })
        },
    );

    // The first `kvs.load` of a value just committed: the master builds
    // the object's one load reply. Outside the count, each repetition
    // commits a 512-byte value of its own.
    let mut fresh = 0;
    pin_bytes(
        "kvs.load of a new 512-byte value, the reply built at the master",
        6,
        551,
        || {
            fresh += 1;
            let val = Value::from(format!("{fresh:0512}"));
            ask(put(&mut core, "bench.fresh", val.clone()));
            ask(core.request(KvsMethod::Commit.topic(), Value::object(), 0));
            let id = KvsObject::Val(val).id().to_hex();
            let load =
                Value::from_pairs([("id", Value::from(id.as_str())), ("shard", Value::from(0i64))]);
            let id = MsgId { origin: Rank(1), seq: 1_000_000 + fresh };
            Message::request(KvsMethod::Load.topic(), id, Rank(1), load)
        },
        |msg| {
            master
                .borrow_mut()
                .handle(0, Input::FromBroker { plane: Plane::Tree, from: Rank(1), msg })
        },
    );

    // Its twin: the first `kvs.get` of a value just committed builds the
    // object's one get reply, whose string is a view of the held bytes,
    // not a 512-byte copy (a copy read 7 calls, 1061 bytes).
    pin_bytes(
        "kvs.get of a new 512-byte value, the reply built at the master",
        6,
        549,
        || {
            fresh += 1;
            let val = Value::from(format!("{fresh:0512}"));
            ask(put(&mut core, "bench.fresh", val));
            ask(core.request(KvsMethod::Commit.topic(), Value::object(), 0));
            core.request(KvsMethod::Get.topic(), get_payload("bench.fresh"), 0)
        },
        ask,
    );
}

#[test]
fn kvs_push_from_a_child() {
    // Rank 1 of a two-broker session commits one put: what it sends its
    // parent is the `kvs.push` every repetition replays, re-decoded from
    // the wire bytes so that each arrives with a fresh payload.
    let mut child = started(BrokerConfig::new(Rank(1), 2), kvs());
    let mut core = ClientCore::new(Rank(1), 0);
    from_client(&mut child, put(&mut core, "bench.k", Value::Int(42)));
    let outs = from_client(&mut child, core.request(KvsMethod::Commit.topic(), Value::object(), 0));
    let topic = KvsMethod::Push.topic();
    let push = outs
        .iter()
        .find_map(|o| match o {
            Output::ToBroker { msg, .. } if msg.header.topic == topic => Some(msg),
            _ => None,
        })
        .expect("a push");
    let bytes = push.encode();

    let mut master = started(BrokerConfig::new(Rank(0), 2), kvs());
    let mut seq = 0;
    let mut next = || {
        seq += 1;
        let (mut msg, _) = Message::decode(&bytes).expect("own encoding decodes");
        msg.header.id.seq = seq;
        msg
    };
    // The push is parked in the batch window and applied when its timer
    // fires: one operation is both calls.
    let mut accept = |msg| {
        let parked = master.handle(0, Input::FromBroker { plane: Plane::Tree, from: Rank(1), msg });
        let token = parked.iter().find_map(|o| match o {
            Output::SetTimer { token, .. } => Some(*token),
            _ => None,
        });
        (master.handle(0, Input::Timer { token: token.expect("the window is armed") }), parked)
    };
    // Fill the master's bounded memo of seen push ids, so that recording
    // one more evicts one instead of growing the table.
    for _ in 0..4200 {
        accept(next());
    }
    pin(
        "kvs.push from a child, accepted at the master and flushed by its window",
        51,
        next,
        accept,
    );
}

#[test]
fn kvs_load_forwarded_by_an_interior_broker() {
    // Rank 1 of four caches nothing, so a `kvs.load` from its child rank 3
    // misses there and climbs on to rank 0 as it came, leaving one marker
    // at rank 1. Outside the count rank 0 refuses it as a master does,
    // naming the object, and the refusal passing rank 1 on its way down
    // empties rank 1's tables: every repetition is a first miss on the
    // object.
    let relay = RefCell::new(started(BrokerConfig::new(Rank(1), 4), kvs()));
    let id = KvsObject::Val(Value::Int(42)).id().to_hex();
    let load = Value::from_pairs([("id", Value::from(id.as_str())), ("shard", Value::from(0i64))]);
    let topic = KvsMethod::Load.topic();
    let sent = RefCell::new(Vec::new());
    let mut seq = 0;
    pin(
        "kvs.load from child rank 3, a miss forwarded by interior rank 1",
        3,
        || {
            let forwarded = sent.take().into_iter().find_map(|out| match out {
                Output::ToBroker { msg, .. } if msg.header.topic == topic => Some(msg),
                _ => None,
            });
            if let Some(up) = forwarded {
                let enoent = flux_wire::errnum::ENOENT;
                let refusal = Value::from_pairs([
                    ("errstr", Value::from(flux_wire::errnum::strerror(enoent))),
                    ("id", Value::from(id.as_str())),
                ]);
                let msg = Message::error_response_with(&up, enoent, refusal);
                let from_parent = Input::FromBroker { plane: Plane::Tree, from: Rank(0), msg };
                relay.borrow_mut().handle(0, from_parent);
            } else {
                assert_eq!(seq, 0, "every miss is forwarded");
            }
            seq += 1;
            let id = MsgId { origin: Rank(3), seq };
            Message::request(topic.clone(), id, Rank(3), load.clone())
        },
        |msg| {
            let from_child = Input::FromBroker { plane: Plane::Tree, from: Rank(3), msg };
            sent.replace(relay.borrow_mut().handle(0, from_child))
        },
    );
}

#[test]
fn kvs_push_forwarded_by_an_interior_broker() {
    // Rank 3 of four commits one put: what it sends its parent, rank 1,
    // is the `kvs.push` every repetition replays, re-decoded from the
    // wire bytes under a fresh id. Rank 1 masters no shard, so the push
    // climbs on to rank 0 as it came, and nothing is filed at rank 1.
    let mut child = started(BrokerConfig::new(Rank(3), 4), kvs());
    let mut core = ClientCore::new(Rank(3), 0);
    from_client(&mut child, put(&mut core, "bench.k", Value::Int(42)));
    let outs = from_client(&mut child, core.request(KvsMethod::Commit.topic(), Value::object(), 0));
    let topic = KvsMethod::Push.topic();
    let push = outs
        .iter()
        .find_map(|o| match o {
            Output::ToBroker { to: Rank(1), msg } if msg.header.topic == topic => Some(msg),
            _ => None,
        })
        .expect("a push to the parent");
    let bytes = push.encode();

    let mut interior = started(BrokerConfig::new(Rank(1), 4), kvs());
    let mut seq = 0;
    pin_bytes(
        "kvs.push from child rank 3, forwarded by interior rank 1",
        2,
        400,
        || {
            seq += 1;
            let (mut msg, _) = Message::decode(&bytes).expect("own encoding decodes");
            msg.header.id.seq = seq;
            msg
        },
        |msg| {
            let up = interior.handle(0, Input::FromBroker { plane: Plane::Tree, from: Rank(3), msg });
            assert!(
                matches!(&up[..], [Output::ToBroker { to: Rank(0), msg }] if msg.header.topic == topic),
                "forwarded as it came: {up:?}"
            );
            up
        },
    );
}

#[test]
fn kvs_fence_up_merged_at_an_interior_broker() {
    // Rank 1 of four receives one contribution from its child rank 3 —
    // a tuple and the value object it names, stamped with the next batch
    // id — merges it, and sends it on when the window it armed fires.
    let mut relay = started(BrokerConfig::new(Rank(1), 4), kvs());
    let obj = KvsObject::Val(Value::Int(42));
    let hex = obj.id().to_hex();
    let mut batch = 0;
    let next = || {
        batch += 1;
        let tuple =
            Value::from_pairs([("k", Value::from("bench.k")), ("s", Value::from(hex.as_str()))]);
        let payload = Value::from_pairs([
            ("name", Value::from("bench.fence")),
            ("nprocs", Value::from(64i64)),
            ("count", Value::from(1i64)),
            ("tuples", Value::Array(vec![tuple])),
            ("objects", Value::from_pairs([(hex.as_str(), obj.to_value())])),
            ("src", Value::from(3u32)),
            ("batch", Value::from(batch as i64)),
        ]);
        let id = MsgId { origin: Rank(3), seq: batch };
        Message::request(KvsMethod::FenceUp.topic(), id, Rank(3), payload)
    };
    let merge = |msg| {
        let merged = relay.handle(0, Input::FromBroker { plane: Plane::Tree, from: Rank(3), msg });
        let token = merged.iter().find_map(|o| match o {
            Output::SetTimer { token, .. } => Some(*token),
            _ => None,
        });
        (relay.handle(0, Input::Timer { token: token.expect("the window is armed") }), merged)
    };
    pin_bytes(
        "kvs.fence.up from child rank 3, merged at interior rank 1 and flushed by its window",
        14,
        1322,
        next,
        merge,
    );
}

#[test]
fn log_batch_flushed_at_an_interior_broker() {
    // Rank 1 of four merges a one-entry `log.batch` from its child rank 3
    // and sends it on at the next heartbeat: the stamped batch is one
    // allocation, sized for its field and the stamp together.
    let mut relay = started(BrokerConfig::new(Rank(1), 4), vec![Box::new(LogModule::new())]);
    let entry = Value::parse(r#"{"level":6,"rank":3,"text":"bench","time_ns":0}"#).expect("json");
    let mut seq = 0;
    let next = || {
        seq += 1;
        let (entries, n) = (Value::Array(vec![entry.clone()]), Value::from(seq as i64));
        let batch = [("entries", entries), ("src", Value::from(3u32)), ("batch", n.clone())];
        let (up, beat) = (MsgId { origin: Rank(3), seq }, MsgId { origin: Rank(0), seq });
        let epoch = Value::from_pairs([("epoch", n)]);
        let hb = Message::event(Event::Hb.topic(), beat, Rank(0), epoch);
        (Message::request(LogMethod::Batch.topic(), up, Rank(3), Value::from_pairs(batch)), hb)
    };
    pin_bytes(
        "log.batch from child rank 3, merged at interior rank 1 and flushed by the heartbeat",
        18,
        1165,
        next,
        |(batch, hb)| {
            let at = |plane, from, msg| Input::FromBroker { plane, from: Rank(from), msg };
            let merged = relay.handle(0, at(Plane::Tree, 3, batch));
            (relay.handle(0, at(Plane::Event, 0, hb)), merged)
        },
    );
}

#[test]
fn broker_routing() {
    let mut core = ClientCore::new(Rank(1), 0);

    let mut local = started(BrokerConfig::new(Rank(0), 1), Vec::new());
    pin_bytes(
        "cmb.ping answered locally",
        7,
        726,
        || core.request(CmbMethod::Ping.topic(), Value::object(), 0),
        |msg| from_client(&mut local, msg),
    );

    // Rank 1 of seven has no kvs module: the get goes to its parent.
    let mut relay = started(BrokerConfig::new(Rank(1), 7), Vec::new());
    pin(
        "kvs.get routed upstream by a rank with no kvs module",
        2,
        || core.request(KvsMethod::Get.topic(), get_payload("bench.k"), 0),
        |msg| from_client(&mut relay, msg),
    );

    // The answer to a request that child rank 3 sent through rank 1.
    let mut seq = 0;
    pin(
        "a response routed down",
        1,
        || {
            seq += 1;
            let mut req = Message::request(
                KvsMethod::Get.topic(),
                MsgId { origin: Rank(3), seq },
                Rank(3),
                Value::object(),
            );
            req.header.hops.push(Rank(3));
            Message::response_to(&req, Value::object())
        },
        |msg| relay.handle(0, Input::FromBroker { plane: Plane::Tree, from: Rank(0), msg }),
    );

    // A stamped heartbeat from the root, fanned to children 3 and 4.
    let mut epoch = 0;
    pin(
        "an event fanned out to children",
        4,
        || {
            epoch += 1;
            let payload = Value::from_pairs([("epoch", Value::from(epoch as i64))]);
            Message::event(
                Event::Hb.topic(),
                MsgId { origin: Rank(0), seq: epoch },
                Rank(0),
                payload,
            )
        },
        |msg| relay.handle(0, Input::FromBroker { plane: Plane::Event, from: Rank(0), msg }),
    );

    // A ping for rank 6 passing through rank 1 on the ring.
    let mut ring =
        started(BrokerConfig::new(Rank(1), 7).with_rank_overlay(RankOverlay::Ring), Vec::new());
    pin(
        "a rank-addressed ring hop",
        2,
        || core.request_to(Rank(6), CmbMethod::Ping.topic(), Value::object(), 0),
        |msg| ring.handle(0, Input::FromBroker { plane: Plane::Ring, from: Rank(0), msg }),
    );
}

/// A count merged into a waiting key.
struct Sum(u64);

impl Partial for Sum {
    fn merge(&mut self, other: Sum) {
        self.0 += other.0;
    }
}

#[test]
fn reduction_contribute() {
    let mut up: Reduction<u64, Sum> = Reduction::default();
    up.contribute(7, Sum(1));
    pin("Reduction::contribute into a waiting key", 0, || (), |()| up.contribute(7, Sum(1)));
}

#[test]
fn registry_topic() {
    // Interned: a clone of the process-wide topic, a reference-count bump.
    pin("KvsMethod::Get.topic(), warm", 0, || (), |()| KvsMethod::Get.topic());
}

#[test]
fn hashing() {
    let value = vec![0x5a_u8; 4096];
    pin("ObjectId::hash of a 4 KiB buffer", 0, || (), |()| ObjectId::hash(&value));
    pin(
        "Sha1::update fed 1-, 63- and 65-byte pieces",
        0,
        Sha1::new,
        |mut h| {
            for piece in [&value[..1], &value[1..64], &value[64..129]] {
                h.update(piece);
            }
            h.finalize()
        },
    );
}

/// Pins one warm get of `bench.k = val` by client rank 1 of a
/// three-broker sim session, the whole session counted per op. Rank 1's
/// slave cache faults the key in on the first get; after the warm-up
/// every get is a local hit: four engine events per op (the request's
/// and the reply's arrive and handle).
fn warm_gets(row: &str, val: Value, calls: u64, bytes: u64) {
    const WARM: usize = 8;
    let gets = 3 + REPS;
    let mut session = SimSession::new(3, 2, NetParams::default(), |_| kvs());
    let mut ops = vec![Op::Put { key: "bench.k".into(), val }, Op::Commit];
    ops.extend((0..WARM + gets).map(|_| Op::Get { key: "bench.k".into() }));
    let total = ops.len();
    let outcome = ScriptClient::spawn(&mut session, Rank(1), ops);
    {
        // What the script records is sized up front: the row counts the
        // session, not the outcome vectors' growth.
        let mut out = outcome.borrow_mut();
        out.op_done_ns.reserve(total);
        out.op_err.reserve(total);
        out.replies.reserve(total);
    }
    while outcome.borrow().op_done_ns.len() < 2 + WARM {
        session.engine_mut().run_budgeted(1);
    }
    let mut done = 2 + WARM;
    pin_bytes(row, calls, bytes, || done += 1, |()| session.engine_mut().run_budgeted(4));
    let out = outcome.borrow();
    assert_eq!(out.op_done_ns.len(), done, "each repetition completed exactly one get");
    assert!(out.op_err.iter().all(|&e| e == 0), "{:?}", out.op_err);
}

#[test]
fn warm_get_sim_script() {
    warm_gets("warm-get sim script, whole session per op", Value::Int(42), 5, 165);
}

#[test]
fn warm_get_sim_script_of_a_512_byte_value() {
    // Every get is answered with the value's one shared reply and the
    // script records that reply by reference: the bytes are the
    // `Int` row's, with no 512-byte copy per op.
    let val = Value::from("x".repeat(512));
    warm_gets("warm-get sim script, 512-byte value, whole session per op", val, 5, 165);
}

#[test]
fn hostile_length_prefix() {
    // A canonical object, then an array, whose length prefix claims 2^40
    // entries, followed by one well-formed entry: decoding fails
    // `Truncated` after that entry, having sized the container by the
    // bytes that follow the prefix, not by the claim.
    let mut object = vec![0x07];
    flux_value::write_varint(&mut object, 1 << 40);
    object.extend([1, b'a', 0x00]);
    let mut array = vec![0x06];
    flux_value::write_varint(&mut array, 1 << 40);
    array.push(0x00);
    for (row, bytes, calls, asked) in [
        ("canonical object claiming 2^40 entries, one present", &object, 2, 57),
        ("canonical array claiming 2^40 elements, one present", &array, 1, 32),
    ] {
        pin_bytes(
            row,
            calls,
            asked,
            || (),
            |()| {
                let err = Value::decode_canonical(bytes).expect_err("claims more than it holds");
                assert_eq!(err, flux_value::DecodeError::Truncated);
            },
        );
    }
}
