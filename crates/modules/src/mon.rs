//! The `mon` module: heartbeat-synchronized monitoring.
//!
//! Sampler specifications live in the KVS under `mon.samplers.<name>`
//! (the paper stores the sampling scripts themselves in the KVS; we store
//! a spec naming a built-in synthetic metric — see the substitution table
//! in DESIGN.md). Every broker samples on matching heartbeat epochs,
//! contributions reduce (sum/min/max/count, one
//! [`flux_broker::reduce::Reduction`] keyed by sampler and epoch) on
//! their way up the tree, and the root stores the aggregate back into
//! the KVS under `mon.data.<name>.e<epoch>`.

use flux_broker::reduce::{Partial, Reduction};
use flux_broker::{CommsModule, Handled, ModuleCtx};
use flux_kvs::msg;
use flux_proto::{keys, KvsMethod, MonMethod};
use flux_value::Value;
use flux_wire::{errnum, Message, MsgId};
use std::collections::{BTreeMap, HashMap};

/// A sampler specification.
#[derive(Debug, Clone, PartialEq)]
struct Spec {
    metric: String,
    period: u64,
}

/// A partial aggregate travelling up the tree.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Agg {
    sum: f64,
    min: f64,
    max: f64,
    count: u64,
}

impl Agg {
    fn of(v: f64) -> Agg {
        Agg { sum: v, min: v, max: v, count: 1 }
    }
}

impl Partial for Agg {
    fn merge(&mut self, o: Agg) {
        self.sum += o.sum;
        self.min = self.min.min(o.min);
        self.max = self.max.max(o.max);
        self.count += o.count;
    }
}

/// Deterministic synthetic metric: stands in for the paper's Linux
/// sampling scripts (no real /proc in the simulator). Spread and
/// per-epoch variation make reductions meaningful.
fn synth_metric(metric: &str, rank: u32, epoch: u64) -> f64 {
    let seed = metric.bytes().fold(0u64, |a, b| a.wrapping_mul(131).wrapping_add(u64::from(b)));
    let x = seed
        .wrapping_add(u64::from(rank).wrapping_mul(2_654_435_761))
        .wrapping_add(epoch.wrapping_mul(40_503))
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    ((x >> 33) % 10_000) as f64 / 100.0
}

/// What an outstanding internal KVS request was for.
enum PendingKind {
    /// A `mon.add` waiting for its commit; answer the original request.
    AddCommit(Message),
    /// Spec-refresh directory listing.
    DirListing,
    /// Spec body fetch for this sampler name.
    SpecFetch(String),
    /// Fire-and-forget bookkeeping write.
    Ignore,
}

/// The monitoring module.
pub struct MonModule {
    specs: BTreeMap<String, Spec>,
    /// Directory listing fingerprint from the last refresh.
    listing: HashMap<String, String>,
    /// (name, epoch) → partial aggregate.
    acc: Reduction<(String, u64), Agg>,
    pending: HashMap<MsgId, PendingKind>,
    epoch: u64,
    /// Aggregates finalized at the root (for tests/tools).
    finalized: u64,
}

impl MonModule {
    /// Creates the module.
    pub fn new() -> MonModule {
        MonModule {
            specs: BTreeMap::new(),
            listing: HashMap::new(),
            acc: Reduction::default(),
            pending: HashMap::new(),
            epoch: 0,
            finalized: 0,
        }
    }

    fn kvs(&mut self, ctx: &mut ModuleCtx<'_>, method: KvsMethod, payload: Value, kind: PendingKind) {
        let id = ctx.local_request(method.topic(), payload);
        self.pending.insert(id, kind);
    }

    fn refresh_specs(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.kvs(ctx, KvsMethod::Get, msg::dir(keys::mon::SAMPLERS_DIR), PendingKind::DirListing);
    }

    fn flush(&mut self, ctx: &mut ModuleCtx<'_>, current_epoch: u64) {
        if !ctx.is_root() {
            // Interiors forward anything older than the current epoch.
            let older = |(_, epoch): &(String, u64), _: &Agg| *epoch < current_epoch;
            self.acc.flush_all(ctx, &MonMethod::Up.topic(), older, |(name, epoch), agg| {
                Value::from_pairs([
                    ("name", Value::from(name)),
                    ("epoch", Value::from(epoch as i64)),
                    ("sum", Value::Float(agg.sum)),
                    ("min", Value::Float(agg.min)),
                    ("max", Value::Float(agg.max)),
                    ("count", Value::from(agg.count as i64)),
                ])
            });
            return;
        }
        // The root holds an epoch open long enough for contributions
        // from the deepest brokers to climb the tree (one flush level per
        // heartbeat), then stores its aggregates in one commit.
        let lag = u64::from(ctx.tree_height()) + 1;
        let ready = self.acc.drain(|(_, epoch), _| epoch + lag < current_epoch);
        if ready.is_empty() {
            return;
        }
        for ((name, epoch), agg) in ready {
            self.finalized += 1;
            let data = Value::from_pairs([
                ("sum", Value::Float(agg.sum)),
                ("min", Value::Float(agg.min)),
                ("max", Value::Float(agg.max)),
                ("count", Value::from(agg.count as i64)),
                ("avg", Value::Float(agg.sum / agg.count as f64)),
            ]);
            let put = msg::put(&keys::mon::data_key(&name, epoch), data);
            self.kvs(ctx, KvsMethod::Put, put, PendingKind::Ignore);
        }
        self.kvs(ctx, KvsMethod::Commit, Value::object(), PendingKind::Ignore);
    }
}

impl Default for MonModule {
    fn default() -> Self {
        Self::new()
    }
}

impl CommsModule for MonModule {
    fn name(&self) -> &'static str {
        "mon"
    }

    fn handle_request(&mut self, ctx: &mut ModuleCtx<'_>, msg: Message) -> Handled {
        match MonMethod::from_method(msg.header.topic.method()) {
            Some(MonMethod::Add) => {
                let (Some(name), Some(metric)) = (
                    msg.payload.get("name").and_then(Value::as_str),
                    msg.payload.get("metric").and_then(Value::as_str),
                ) else {
                    return ctx.respond_err(&msg, errnum::EINVAL);
                };
                let key = match crate::checked_key(keys::mon::sampler_key(name)) {
                    Ok(key) => key,
                    Err(code) => return ctx.respond_err(&msg, code),
                };
                let period = msg.payload.get("period").and_then(Value::as_uint).unwrap_or(1);
                let spec_val = Value::from_pairs([
                    ("metric", Value::from(metric)),
                    ("period", Value::from(period as i64)),
                ]);
                self.kvs(ctx, KvsMethod::Put, msg::put(&key, spec_val), PendingKind::Ignore);
                let (original, parked) = ctx.park(msg);
                self.kvs(ctx, KvsMethod::Commit, Value::object(), PendingKind::AddCommit(original));
                parked
            }
            Some(MonMethod::Up) => {
                let (Some(name), Some(epoch), Some(sum), Some(min), Some(max), Some(count)) = (
                    msg.payload.get("name").and_then(Value::as_str).map(str::to_owned),
                    msg.payload.get("epoch").and_then(Value::as_uint),
                    msg.payload.get("sum").and_then(Value::as_float),
                    msg.payload.get("min").and_then(Value::as_float),
                    msg.payload.get("max").and_then(Value::as_float),
                    msg.payload.get("count").and_then(Value::as_uint),
                ) else {
                    return ctx.one_way(&msg);
                };
                if self.acc.admit(&msg.payload) {
                    self.acc.contribute((name, epoch), Agg { sum, min, max, count });
                }
                ctx.one_way(&msg)
            }
            Some(MonMethod::List) => {
                let mut specs = flux_value::Map::new();
                for (name, spec) in &self.specs {
                    specs.insert(
                        name.clone(),
                        Value::from_pairs([
                            ("metric", Value::from(spec.metric.as_str())),
                            ("period", Value::from(spec.period as i64)),
                        ]),
                    );
                }
                ctx.respond(&msg, Value::from_pairs([("samplers", Value::Object(specs))]))
            }
            None => ctx.respond_err(&msg, errnum::ENOSYS),
        }
    }

    fn handle_response(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        let Some(kind) = self.pending.remove(&msg.header.id) else { return };
        match kind {
            PendingKind::Ignore => {}
            PendingKind::AddCommit(original) => {
                if msg.is_error() {
                    ctx.respond_err(&original, msg.header.errnum);
                } else {
                    ctx.respond(&original, Value::object());
                }
            }
            PendingKind::DirListing => {
                if msg.is_error() {
                    // No samplers registered yet.
                    return;
                }
                let Some(listing) = msg::listing(&msg.payload).and_then(Value::as_object) else {
                    return;
                };
                for (name, idv) in listing {
                    let hex = idv.as_str().unwrap_or_default().to_owned();
                    if self.listing.get(name) != Some(&hex) {
                        self.listing.insert(name.clone(), hex);
                        let get = msg::key(&keys::mon::sampler_key(name));
                        self.kvs(ctx, KvsMethod::Get, get, PendingKind::SpecFetch(name.clone()));
                    }
                }
            }
            PendingKind::SpecFetch(name) => {
                if msg.is_error() {
                    return;
                }
                let v = msg::value(&msg.payload);
                let metric = v
                    .and_then(|v| v.get("metric"))
                    .and_then(Value::as_str)
                    .unwrap_or("load")
                    .to_owned();
                let period = v
                    .and_then(|v| v.get("period"))
                    .and_then(Value::as_uint)
                    .unwrap_or(1)
                    .max(1);
                self.specs.insert(name, Spec { metric, period });
            }
        }
    }

    fn on_heartbeat(&mut self, ctx: &mut ModuleCtx<'_>, epoch: u64) {
        self.epoch = epoch;
        // Flush the previous epoch's partial aggregates upward (or, at the
        // root, into the KVS).
        self.flush(ctx, epoch);
        // Sample local metrics for this epoch.
        let rank = ctx.rank().0;
        for (name, s) in self.specs.iter().filter(|(_, s)| epoch.is_multiple_of(s.period)) {
            let sample = Agg::of(synth_metric(&s.metric, rank, epoch));
            self.acc.contribute((name.clone(), epoch), sample);
        }
        // Keep the spec set fresh (cheap: local KVS walk, cached objects).
        self.refresh_specs(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_metric_is_deterministic_and_bounded() {
        for metric in ["load", "mem", "net"] {
            for rank in [0u32, 1, 511] {
                for epoch in [1u64, 2, 100] {
                    let a = synth_metric(metric, rank, epoch);
                    let b = synth_metric(metric, rank, epoch);
                    assert_eq!(a, b);
                    assert!((0.0..100.0).contains(&a), "{a}");
                }
            }
        }
        assert_ne!(synth_metric("load", 0, 1), synth_metric("load", 1, 1));
        assert_ne!(synth_metric("load", 0, 1), synth_metric("mem", 0, 1));
    }

    #[test]
    fn agg_merge_combines() {
        let mut a = Agg::of(1.0);
        a.merge(Agg::of(5.0));
        a.merge(Agg::of(3.0));
        assert_eq!(a.sum, 9.0);
        assert_eq!(a.min, 1.0);
        assert_eq!(a.max, 5.0);
        assert_eq!(a.count, 3);
    }
}
