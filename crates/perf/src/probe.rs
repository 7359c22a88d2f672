//! Layer probes: the per-layer half of the benchmark.
//!
//! A probe times a loop around one layer's public function, fed with
//! inputs captured from the workload's generated scripts — its put
//! payload, its key set and directory shape, its get requests, its ping —
//! so the same metric names carry each workload's own shapes. Every
//! timed region is a `probe.<layer>.<op>` span carrying its operation
//! count; a metric is the summed duration of its spans over their summed
//! count. Nothing here is inside the program: spans in the program are
//! ROADMAP item 4's job.

use crate::gen::{DesPlan, Scale};
use crate::trace::Tracer;
use flux_broker::client::ClientCore;
use flux_broker::{Broker, BrokerConfig, CommsModule, Input, Output, RankOverlay};
use flux_hash::{ObjectId, Sha1};
use flux_kvs::{apply_tuples, resolve, shard, KvsConfig, KvsModule, KvsObject, ObjectCache};
use flux_proto::{CmbMethod, Event};
use flux_rt::script::Op;
use flux_sim::{Actor, ActorId, Ctx, Engine, NetParams};
use flux_value::Value;
use flux_wire::frame::{write_frame_into, FrameDecoder, MAX_FRAME};
use flux_wire::{Message, MsgId, Plane, Rank};
use std::collections::BTreeMap;
use std::hint::black_box;

/// `(key, Some(object id))`, the master's unit of work.
type Tuple = (String, Option<ObjectId>);

/// Collects probe spans into per-metric `(seconds, operations)` totals.
pub struct Probes<'a> {
    tracer: &'a mut Tracer,
    scale: Scale,
    totals: BTreeMap<(&'static str, &'static str), (f64, u64)>,
    exact: Vec<((&'static str, &'static str), f64)>,
}

impl<'a> Probes<'a> {
    /// Probes that record their spans into `tracer`.
    pub fn new(tracer: &'a mut Tracer, scale: Scale) -> Probes<'a> {
        Probes { tracer, scale, totals: BTreeMap::new(), exact: Vec::new() }
    }

    /// The loop count of a probe sized for `full` iterations: a
    /// two-hundredth of it in the smoke run, which only has to show that
    /// the probe works.
    fn iters(&self, full: u64) -> u64 {
        match self.scale {
            Scale::Full => full,
            Scale::Smoke => (full / 200).max(2),
        }
    }

    /// Runs `f`, which performs `count` operations, under a
    /// `probe.<layer>.<op>` span, and returns its result and duration in
    /// seconds without adding to any metric.
    fn span<T>(
        &mut self,
        layer: &'static str,
        op: &'static str,
        count: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let span = self.tracer.enter(&format!("probe.{layer}.{op}"));
        let out = f();
        (out, self.tracer.exit(span, count))
    }

    /// Times `f`, which performs `count` operations of `layer`'s `op`,
    /// into that metric.
    fn time<T>(
        &mut self,
        layer: &'static str,
        op: &'static str,
        count: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let (out, secs) = self.span(layer, op, count, f);
        let total = self.totals.entry((layer, op)).or_insert((0.0, 0));
        total.0 += secs;
        total.1 += count;
        out
    }

    /// Records a metric that is counted or computed, not timed.
    pub fn set(&mut self, layer: &'static str, op: &'static str, value: f64) {
        self.exact.push(((layer, op), value));
    }

    /// Seconds per operation of a timed metric measured so far.
    fn secs_per_op(&self, layer: &'static str, op: &'static str) -> f64 {
        self.totals.get(&(layer, op)).map_or(0.0, |&(secs, count)| secs / count.max(1) as f64)
    }

    /// Every metric as `(layer, op, value)`: timed ones in ns per
    /// operation, the rest as set.
    pub fn finish(self) -> Vec<(&'static str, &'static str, f64)> {
        let timed = self
            .totals
            .iter()
            .map(|(&(layer, op), &(secs, count))| (layer, op, secs * 1e9 / count.max(1) as f64));
        let exact = self.exact.iter().map(|&((layer, op), v)| (layer, op, v));
        timed.chain(exact).collect()
    }
}

/// The `{k, v}` payload of the workload's first put.
fn first_put_payload(plan: &DesPlan) -> Value {
    let put = plan
        .scripts
        .iter()
        .flat_map(|(_, ops)| ops)
        .find_map(|op| match op {
            Op::Put { key, val } => Some((key, val)),
            _ => None,
        })
        .expect("every simulator workload puts");
    Value::from_pairs([("k", Value::from(put.0.as_str())), ("v", put.1.clone())])
}

/// `value.*`: the canonical codec on one payload.
pub fn value_codec(p: &mut Probes<'_>, payload: &Value) {
    let iters = p.iters(200_000 / (1 + payload.approx_size() as u64 / 256));
    let mut out = Vec::new();
    p.time("value", "encode_ns", iters, || {
        for _ in 0..iters {
            out.clear();
            black_box(payload).encode_canonical_into(&mut out);
            black_box(&out);
        }
    });
    p.time("value", "decode_ns", iters, || {
        for _ in 0..iters {
            black_box(Value::decode_canonical(black_box(&out)).expect("own encoding decodes"));
        }
    });
}

/// `hash.*`: SHA1 over the workload's dominant object.
fn hashing(p: &mut Probes<'_>, object: &[u8]) {
    let iters = p.iters(1 + (64 << 20) / object.len() as u64);
    let ((), secs) = p.span("hash", "sha1_mb_per_s", iters, || {
        for _ in 0..iters {
            black_box(Sha1::digest(black_box(object)));
        }
    });
    p.set("hash", "sha1_mb_per_s", (object.len() as u64 * iters) as f64 / 1e6 / secs);
    p.time("hash", "object_id_ns", iters, || {
        for _ in 0..iters {
            black_box(ObjectId::hash(black_box(object)));
        }
    });
}

/// One shard master's share of the workload: the tuples it applies, in
/// the batches they reach it, and the value objects they name.
struct MasterShare {
    values: Vec<KvsObject>,
    batches: Vec<Vec<Tuple>>,
}

/// True if more than one process commits on its own: the master then
/// sees many small pushes instead of one collective batch.
fn independent_commits(plan: &DesPlan) -> bool {
    plan.scripts.iter().filter(|(_, ops)| ops.iter().any(|o| matches!(o, Op::Commit))).count() > 1
}

/// Splits the workload's writes the way its KVS configuration would:
/// by shard, then into the batches the master applies — every process's
/// tuple in one fence (or one commit) without independent commits,
/// `batch_max`-sized groups of pushes with them.
fn master_shares(plan: &DesPlan) -> Vec<MasterShare> {
    let independent_commits = independent_commits(plan);
    let tuples: Vec<Tuple> = plan
        .objects
        .iter()
        .map(|(key, val)| (key.clone(), Some(KvsObject::Val(val.clone()).id())))
        .collect();
    let by_id: BTreeMap<ObjectId, &Value> =
        tuples.iter().zip(&plan.objects).map(|((_, id), (_, v))| (id.expect("a put"), v)).collect();
    shard::partition_tuples(tuples, plan.kvs.shards)
        .into_iter()
        .map(|part| {
            let values = part
                .iter()
                .map(|(_, id)| KvsObject::Val(by_id[&id.expect("a put")].clone()))
                .collect();
            let batch = if independent_commits { plan.kvs.batch_max } else { part.len() };
            MasterShare { values, batches: part.chunks(batch.max(1)).map(<[_]>::to_vec).collect() }
        })
        .collect()
}

/// A master's cache holding `share`'s value objects, as after the pushes
/// arrived and before the apply.
fn loaded_cache(share: &MasterShare) -> ObjectCache {
    let mut cache = ObjectCache::new();
    for obj in &share.values {
        cache.insert(obj.clone());
    }
    cache
}

/// Applies `share`'s batches in order, returning the final root.
fn apply_share(cache: &mut ObjectCache, share: &MasterShare) -> ObjectId {
    let mut root = KvsObject::empty_dir().id();
    for batch in &share.batches {
        root = apply_tuples(cache, root, batch);
    }
    root
}

/// `kvs.master.*`, `kvs.object.*`, `kvs.store.*` and `hash.*`, on the
/// workload's own keys, values and directory shape.
fn kvs_master_and_objects(p: &mut Probes<'_>, plan: &DesPlan) {
    let shares = master_shares(plan);
    let tuples_total: u64 = plan.objects.len() as u64;

    // Master apply: fresh caches are loaded outside the clock.
    let rounds = p.iters(16_384 / tuples_total).max(2);
    for _ in 0..rounds {
        let mut caches: Vec<ObjectCache> = shares.iter().map(loaded_cache).collect();
        p.time("kvs", "master.apply_ns_per_tuple", tuples_total, || {
            for (cache, share) in caches.iter_mut().zip(&shares) {
                black_box(apply_share(cache, share));
            }
        });
    }

    // The applied state, kept for the read-side probes.
    let mut masters: Vec<(ObjectCache, ObjectId)> = shares
        .iter()
        .map(|share| {
            let mut cache = loaded_cache(share);
            let root = apply_share(&mut cache, share);
            (cache, root)
        })
        .collect();
    let shards = plan.kvs.shards;
    let reads: Vec<(&str, usize)> = plan
        .read_keys()
        .map(|key| (key, shard::shard_of_key(key, shards).unwrap_or(0) as usize))
        .collect();
    let rounds = p.iters(200_000 / reads.len() as u64).max(1);
    p.time("kvs", "master.resolve_ns", rounds * reads.len() as u64, || {
        for _ in 0..rounds {
            for &(key, shard) in &reads {
                let (cache, root) = &mut masters[shard];
                black_box(resolve(cache, *root, key).expect("a written key resolves"));
            }
        }
    });

    // The directory the reads walk: the parent of the first key read.
    let (first_key, first_shard) = reads[0];
    let (cache, root) = &mut masters[first_shard];
    let dir_key = first_key.rsplit_once('.').expect("keys have a directory").0;
    let dir_id = resolve(cache, *root, dir_key).expect("the directory exists");
    let dir = cache.get(dir_id).expect("resolved objects are cached");
    let entries = match &*dir {
        KvsObject::Dir(e) => e.len() as u64,
        KvsObject::Val(_) => 1,
    };
    let iters = p.iters(2_000_000 / entries).max(16);
    p.time("kvs", "object.dir_encode_ns", iters, || {
        for _ in 0..iters {
            black_box(black_box(&*dir).encode());
        }
    });
    p.time("kvs", "object.dir_id_ns", iters, || {
        for _ in 0..iters {
            black_box(black_box(&*dir).id());
        }
    });
    p.time("kvs", "object.dir_to_value_ns", iters, || {
        for _ in 0..iters {
            black_box(black_box(&*dir).to_value());
        }
    });
    let as_value = dir.to_value();
    p.time("kvs", "object.dir_from_value_ns", iters, || {
        for _ in 0..iters {
            black_box(KvsObject::from_value(black_box(&as_value)).expect("own embedding parses"));
        }
    });
    let dir_bytes = dir.encode();
    p.set("kvs", "object.dir_bytes", dir_bytes.len() as f64);

    // The dominant object: independent commits hash each fat value once
    // per hop and small directories per batch; collective writes and
    // reads re-hash the directory at every `kvs.load` reply.
    if independent_commits(plan) {
        hashing(p, &shares[first_shard].values[0].encode());
    } else {
        hashing(p, &dir_bytes);
    }

    // Object cache: insert every value of the workload, then hit them.
    let values: Vec<KvsObject> = shares.iter().flat_map(|s| s.values.iter().cloned()).collect();
    let insert_all = |p: &mut Probes<'_>| {
        let (fresh, mut cache) = (values.clone(), ObjectCache::new());
        let ids: Vec<ObjectId> = p.time("kvs", "store.insert_ns", fresh.len() as u64, || {
            fresh.into_iter().map(|obj| cache.insert(obj)).collect()
        });
        (cache, ids)
    };
    for _ in 1..p.iters(16_384 / values.len() as u64).max(2) {
        insert_all(p);
    }
    let (mut cache, ids) = insert_all(p);
    let rounds = p.iters(1_000_000 / ids.len() as u64).max(1);
    p.time("kvs", "store.get_hit_ns", rounds * ids.len() as u64, || {
        for _ in 0..rounds {
            for &id in &ids {
                black_box(cache.get(id).expect("inserted objects hit"));
            }
        }
    });
}

/// A size-`size` session's broker at `rank`, started, with `modules`.
fn started_broker(
    rank: u32,
    size: u32,
    overlay: RankOverlay,
    modules: Vec<Box<dyn CommsModule>>,
) -> Broker {
    let config = BrokerConfig::new(Rank(rank), size).with_arity(2).with_rank_overlay(overlay);
    let mut broker = Broker::new(config, modules);
    broker.start(0);
    broker
}

/// Feeds `input` to `broker` and plays every timer it sets back in
/// until a message for the client appears, as a runtime would.
fn handle_until_reply(broker: &mut Broker, now_ns: &mut u64, input: Input) -> Message {
    let mut outputs = broker.handle(*now_ns, input);
    loop {
        let mut timers = Vec::new();
        for out in outputs {
            match out {
                Output::ToClient { msg, .. } => return msg,
                Output::SetTimer { delay_ns, token } => timers.push((delay_ns, token)),
                Output::ToBroker { .. } => {}
            }
        }
        assert!(!timers.is_empty(), "request left neither a reply nor a timer");
        outputs = Vec::new();
        for (delay_ns, token) in timers {
            *now_ns += delay_ns;
            outputs.extend(broker.handle(*now_ns, Input::Timer { token }));
        }
    }
}

/// `kvs.module.*`: the workload's puts, a commit after each, then its
/// gets, through `Broker::handle` on a one-broker session whose `kvs`
/// module is therefore the master.
fn kvs_module(p: &mut Probes<'_>, plan: &DesPlan) {
    let kvs = KvsConfig { shards: 1, ..plan.kvs };
    let mut broker = started_broker(
        0,
        1,
        RankOverlay::default(),
        vec![Box::new(KvsModule::with_config(kvs)) as Box<dyn CommsModule>],
    );
    let mut core = ClientCore::new(Rank(0), 0);
    let mut now_ns = 0u64;
    let mut ask = |p: &mut Probes<'_>, op_name: &'static str, op: &Op| {
        let msg = op.to_request(&mut core, 0);
        let reply = p.time("kvs", op_name, 1, || {
            handle_until_reply(&mut broker, &mut now_ns, Input::FromClient { client: 0, msg })
        });
        assert_eq!(reply.header.errnum, 0, "{op_name} probe failed");
    };
    let written: Vec<&(String, Value)> = plan.objects.iter().take(256).collect();
    for (key, val) in &written {
        ask(p, "module.put_ns", &Op::Put { key: key.clone(), val: val.clone() });
        ask(p, "module.commit_ns", &Op::Commit);
    }
    // On the master every object is resident, so every get is a hit.
    for _ in 0..8 {
        for (key, _) in &written {
            ask(p, "module.get_hit_ns", &Op::Get { key: key.clone() });
        }
    }
}

/// `broker.*`: a local ping, a routed rank-addressed ping, and an event
/// fan-out, on brokers with no modules loaded so only the broker's own
/// dispatch is timed.
pub fn broker_paths(p: &mut Probes<'_>, ping: &Value, size: u32, overlay: RankOverlay) {
    let n = p.iters(100_000);
    let size = size.max(3);
    let mut core = ClientCore::new(Rank(0), 0);
    let topic = CmbMethod::Ping.topic();

    let mut local = started_broker(0, 1, overlay, Vec::new());
    let requests: Vec<Message> =
        (0..n).map(|i| core.request(topic.clone(), ping.clone(), i)).collect();
    p.time("broker", "ping_ns", n, || {
        for msg in requests {
            let out = local.handle(0, Input::FromClient { client: 0, msg });
            debug_assert!(matches!(out[..], [Output::ToClient { .. }]));
            black_box(out);
        }
    });

    // Rank 1 is interior in every tree of three or more brokers; a ping
    // for the last rank passes through it whatever the overlay.
    let mut interior = started_broker(1, size, overlay, Vec::new());
    let transit: Vec<Message> =
        (0..n).map(|i| core.request_to(Rank(size - 1), topic.clone(), ping.clone(), i)).collect();
    p.time("broker", "route_ns", n, || {
        for msg in transit {
            let out =
                interior.handle(0, Input::FromBroker { plane: Plane::Ring, from: Rank(0), msg });
            debug_assert!(matches!(out[..], [Output::ToBroker { .. }]));
            black_box(out);
        }
    });

    let mut root = started_broker(0, size, overlay, Vec::new());
    let event = Event::Hb.topic();
    p.time("broker", "publish_ns", n, || {
        for epoch in 0..n {
            let payload = Value::from_pairs([("epoch", Value::from(epoch as i64))]);
            let out = root.publish(0, event.clone(), payload);
            debug_assert_eq!(out.len(), 2, "one copy per child");
            black_box(out);
        }
    });
}

/// Bounces one message between two actors until `left` runs out.
struct Bouncer {
    peer: ActorId,
    serve: Option<Message>,
    left: u64,
}

impl Actor for Bouncer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(msg) = self.serve.take() {
            ctx.send(self.peer, msg);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ActorId, msg: Message) {
        if self.left > 0 {
            self.left -= 1;
            ctx.send(from, msg);
        }
    }
}

/// `sim.empty_event_ns`: the engine's floor — two actors on two nodes
/// bouncing one small message a million times, so an event costs the
/// queue, the cost model and a dispatch, and nothing else.
fn engine_floor(p: &mut Probes<'_>) {
    let bounces = p.iters(500_000);
    let mut engine = Engine::new(NetParams::default());
    let (a, b) = (engine.add_node(), engine.add_node());
    let msg = Message::request(
        CmbMethod::Ping.topic(),
        MsgId { origin: Rank(0), seq: 1 },
        Rank(0),
        Value::object(),
    );
    engine.add_actor(a, Box::new(Bouncer { peer: 1, serve: Some(msg), left: bounces }));
    engine.add_actor(b, Box::new(Bouncer { peer: 0, serve: None, left: bounces }));
    // Twice the bounces is a lower bound on the events; the exact count
    // is only known after the run.
    let ((), secs) = p.span("sim", "empty_event_ns", 2 * bounces, || {
        engine.run();
    });
    p.set("sim", "empty_event_ns", secs * 1e9 / engine.stats().events as f64);
}

/// Every probe a simulator workload runs.
pub fn des_probes(p: &mut Probes<'_>, plan: &DesPlan) {
    value_codec(p, &first_put_payload(plan));
    kvs_master_and_objects(p, plan);
    kvs_module(p, plan);
    broker_paths(p, &Value::object(), plan.nodes, plan.overlay);
    engine_floor(p);
}

/// `wire.*`: the message codec and the stream framing on one ping
/// request, as the driver sends it.
pub fn wire_codec(p: &mut Probes<'_>, ping: &Value) -> usize {
    let n = p.iters(200_000);
    let mut core = ClientCore::new(Rank(0), 0);
    let msg = core.request(CmbMethod::Ping.topic(), ping.clone(), 0);
    let mut out = Vec::new();
    p.time("wire", "encode_ns", n, || {
        for _ in 0..n {
            black_box(&msg).encode_into(&mut out);
            black_box(&out);
        }
    });
    p.time("wire", "decode_ns", n, || {
        for _ in 0..n {
            black_box(Message::decode(black_box(&out)).expect("own encoding decodes"));
        }
    });
    let mut stream = Vec::new();
    let mut scratch = Vec::new();
    p.time("wire", "frame_write_ns", n, || {
        for _ in 0..n {
            write_frame_into(&mut stream, black_box(&msg), MAX_FRAME, &mut scratch)
                .expect("a Vec accepts every write");
        }
    });
    let frame_len = stream.len() / n as usize;
    p.set("wire", "bytes_per_msg", frame_len as f64);
    let mut decoder = FrameDecoder::new();
    p.time("wire", "frame_decode_ns", n, || {
        for chunk in stream.chunks(16 * 1024) {
            decoder.feed(chunk);
            while let Some(m) = decoder.next_message(MAX_FRAME).expect("own frames decode") {
                black_box(m);
            }
        }
    });
    assert_eq!(decoder.pending(), 0, "every frame was consumed");
    frame_len
}

/// `(wire.encode_ns + wire.decode_ns, broker.ping_ns)` as measured so
/// far, for the `rt.wait_share` budget.
pub fn codec_and_broker_ns(p: &Probes<'_>) -> (f64, f64) {
    (
        (p.secs_per_op("wire", "encode_ns") + p.secs_per_op("wire", "decode_ns")) * 1e9,
        p.secs_per_op("broker", "ping_ns") * 1e9,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{des_plan, ping_payload, Workload};

    fn names(metrics: &[(&str, &str, f64)]) -> Vec<String> {
        metrics.iter().map(|(l, o, _)| format!("{l}.{o}")).collect()
    }

    #[test]
    fn simulator_probes_report_every_layer_of_the_stack_under_them() {
        for w in [Workload::Fence8k, Workload::CommitSharded2k, Workload::ReadFanout1k] {
            let plan = des_plan(w, 5, Scale::Smoke);
            let mut tracer = Tracer::new(true);
            let mut p = Probes::new(&mut tracer, Scale::Smoke);
            des_probes(&mut p, &plan);
            let metrics = p.finish();
            assert_eq!(metrics.len(), 20, "{}: {:?}", w.name(), names(&metrics));
            for (layer, op, value) in &metrics {
                assert!(*value > 0.0, "{}: {layer}.{op} = {value}", w.name());
            }
            let spans = tracer.to_value();
            assert!(spans.as_array().unwrap().len() >= metrics.len());
        }
    }

    #[test]
    fn sharded_workloads_are_probed_in_push_sized_batches() {
        let plan = des_plan(Workload::CommitSharded2k, 5, Scale::Smoke);
        let shares = master_shares(&plan);
        assert_eq!(shares.len(), 4);
        assert_eq!(shares.iter().map(|s| s.values.len()).sum::<usize>(), plan.objects.len());
        assert!(shares.iter().flat_map(|s| &s.batches).all(|b| b.len() <= plan.kvs.batch_max));
        // A fence delivers everything in one batch.
        let fence = master_shares(&des_plan(Workload::Fence8k, 5, Scale::Smoke));
        assert_eq!((fence.len(), fence[0].batches.len()), (1, 1));
    }

    #[test]
    fn live_probes_cover_the_codec_the_framing_and_the_broker() {
        let ping = ping_payload(5);
        let mut tracer = Tracer::new(true);
        let mut p = Probes::new(&mut tracer, Scale::Smoke);
        value_codec(&mut p, &ping);
        let frame_len = wire_codec(&mut p, &ping);
        assert!(frame_len > 64, "the pad is in the frame");
        broker_paths(&mut p, &ping, 1, RankOverlay::default());
        let (codec_ns, ping_ns) = codec_and_broker_ns(&p);
        assert!(codec_ns > 0.0 && ping_ns > 0.0);
        assert_eq!(p.finish().len(), 10);
    }
}
