//! Metric definitions and the result documents.
//!
//! [`SPECS`] is the one table of every metric the benchmark can report:
//! its name, unit, which direction is better, the regression bound of an
//! end-to-end metric, and where the driver of `BENCHMARK.json` reads it.
//! Everything that prints, writes, compares or checks a metric looks it
//! up here.

use crate::gen::Workload;
use crate::stats::{self, Summary};
use crate::sys;
use flux_value::{Map, Value};

/// Schema tag of every result file.
pub const SCHEMA: &str = "flux-perf/v1";

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Where the driver of `BENCHMARK.json` finds a metric.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Home {
    /// In `end_to_end`: every workload reports it and it is never 0.
    EndToEnd,
    /// In `per_layer`: reported by the traced run, 0 on a workload that
    /// does not exercise the layer.
    PerLayer,
    /// Not a driver metric: the result line's `attempted` and `failed`
    /// carry it.
    Counts,
}

/// One metric's definition.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// The layer (crate or module) a per-layer metric belongs to; empty
    /// for the end-to-end metrics.
    pub layer: &'static str,
    /// The rest of the name.
    pub op: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Which direction is better.
    pub better: Better,
    /// Share of the baseline by which an end-to-end metric may get worse
    /// before it counts as a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
    /// Where the driver reads it.
    pub home: Home,
}

impl Spec {
    /// The full metric name: `op`, or `layer.op`.
    pub fn name(&self) -> String {
        if self.layer.is_empty() {
            self.op.to_owned()
        } else {
            format!("{}.{}", self.layer, self.op)
        }
    }
}

const fn end_to_end(op: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec { layer: "", op, unit, better, bound: Some(bound), home: Home::EndToEnd }
}

/// An end-to-end metric the driver reads with the per-layer ones, because
/// it cannot sit in a list whose every entry is non-zero on every
/// workload and steady from run to run; `check` still holds it to `bound`.
const fn beside_layers(op: &'static str, unit: &'static str, bound: f64) -> Spec {
    Spec { layer: "", op, unit, better: Better::Lower, bound: Some(bound), home: Home::PerLayer }
}

const fn layer(layer: &'static str, op: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec { layer, op, unit, better, bound: None, home: Home::PerLayer }
}

const fn ns(l: &'static str, op: &'static str) -> Spec {
    layer(l, op, "ns", Better::Lower)
}

use Better::{Higher, Lower};

/// Every metric: the eleven end-to-end ones, the forty-one layer probes,
/// the two host readings behind the corrected times, and the tracing
/// overhead.
pub const SPECS: &[Spec] = &[
    // Wall-clock bounds are as wide as the driver allows, because its
    // host is shared (README, "How steady it is").
    end_to_end("setup_s", "s", Lower, 0.25),
    end_to_end("wall_s", "s", Lower, 0.25),
    end_to_end("peak_rss_mb", "MB", Lower, 0.10),
    end_to_end("rtt_p50_us", "us", Lower, 0.25),
    end_to_end("rpc_per_s", "1/s", Higher, 0.25),
    // A tail of one-at-a-time pings on a shared host is the host
    // scheduler's: two sets of ten runs of one build spread 16 % and 62 %.
    beside_layers("rtt_p99_us", "us", 0.25),
    // Virtual time is exact and only exists on the simulator.
    beside_layers("vt_producer_ms", "virtual_ms", 0.01),
    beside_layers("vt_sync_ms", "virtual_ms", 0.01),
    beside_layers("vt_consumer_ms", "virtual_ms", 0.01),
    beside_layers("vt_makespan_ms", "virtual_ms", 0.01),
    Spec {
        layer: "",
        op: "fail_ratio",
        unit: "ratio",
        better: Lower,
        bound: Some(0.0),
        home: Home::Counts,
    },
    ns("value", "encode_ns"),
    ns("value", "decode_ns"),
    ns("wire", "encode_ns"),
    ns("wire", "decode_ns"),
    ns("wire", "frame_write_ns"),
    ns("wire", "frame_decode_ns"),
    layer("wire", "bytes_per_msg", "B", Lower),
    layer("hash", "sha1_mb_per_s", "MB/s", Higher),
    ns("hash", "object_id_ns"),
    ns("kvs", "object.dir_encode_ns"),
    ns("kvs", "object.dir_id_ns"),
    ns("kvs", "object.dir_to_value_ns"),
    ns("kvs", "object.dir_from_value_ns"),
    layer("kvs", "object.dir_bytes", "B", Lower),
    ns("kvs", "master.apply_ns_per_tuple"),
    ns("kvs", "master.resolve_ns"),
    ns("kvs", "store.insert_ns"),
    ns("kvs", "store.get_hit_ns"),
    ns("kvs", "module.put_ns"),
    ns("kvs", "module.commit_ns"),
    ns("kvs", "module.get_hit_ns"),
    ns("broker", "ping_ns"),
    ns("broker", "route_ns"),
    ns("broker", "publish_ns"),
    layer("sim", "events", "count", Lower),
    layer("sim", "bytes_on_wire", "B", Lower),
    layer("sim", "events_per_op", "count", Lower),
    layer("sim", "events_per_s", "1/s", Higher),
    layer("sim", "engine_wall_s", "s", Lower),
    layer("sim", "session_overhead_s", "s", Lower),
    ns("sim", "empty_event_ns"),
    layer("rt", "session_start_ms", "ms", Lower),
    layer("rt", "connect_us", "us", Lower),
    layer("rt", "shutdown_ms", "ms", Lower),
    layer("rt", "rtt_floor_us", "us", Lower),
    layer("rt", "wait_share", "ratio", Lower),
    layer("rt", "busy_p99_us", "us", Lower),
    layer("rt", "busy_cpu_us_per_rpc", "us", Lower),
    layer("rt", "bytes_per_rpc", "B", Lower),
    layer("rt", "idle_cpu_pct", "%", Lower),
    layer("rt", "idle_wakeups_per_s", "1/s", Lower),
    layer("host", "yardstick_ms", "ms", Lower),
    layer("host", "wall_raw_s", "s", Lower),
    layer("", "trace_overhead_pct", "%", Lower),
];

/// Looks a metric up by its full name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name() == name)
}

/// One measured metric of one workload.
#[derive(Clone, Debug)]
pub struct Measured {
    /// Full metric name (a [`SPECS`] entry).
    pub name: String,
    /// The reported value.
    pub value: f64,
    /// The samples behind it (reps, rounds or set-ups); one for a count.
    pub summary: Summary,
    /// True for a cell the workload does not define on its own, filled
    /// from another of its metrics so that every workload reports every
    /// end-to-end metric.
    pub derived: bool,
}

impl Measured {
    /// A count or computed value.
    pub fn exact(name: impl Into<String>, value: f64) -> Measured {
        Measured::of(name, value, &[value])
    }

    /// The median of `samples`.
    pub fn median(name: impl Into<String>, samples: &[f64]) -> Measured {
        Measured::of(name, stats::median(samples), samples)
    }

    /// The lower quartile of `samples`.
    pub fn lower_quartile(name: impl Into<String>, samples: &[f64]) -> Measured {
        Measured::of(name, stats::lower_quartile(samples), samples)
    }

    /// `value`, with `samples` as the per-rep estimates that show its
    /// spread.
    pub fn of(name: impl Into<String>, value: f64, samples: &[f64]) -> Measured {
        Measured { name: name.into(), value, summary: stats::summarize(samples), derived: false }
    }

    /// Marks the cell as derived.
    pub fn derived(mut self) -> Measured {
        self.derived = true;
        self
    }

    fn to_value(&self) -> Value {
        let spec = spec(&self.name).expect("measured metrics are in SPECS");
        let mut m = Map::new();
        m.insert("value".into(), Value::Float(self.value));
        m.insert("unit".into(), Value::from(spec.unit));
        m.insert("better".into(), Value::from(spec.better.name()));
        if let Some(bound) = spec.bound {
            m.insert("bound".into(), Value::Float(bound));
        }
        m.insert("n".into(), Value::from(self.summary.n));
        m.insert("min".into(), Value::Float(self.summary.min));
        m.insert("max".into(), Value::Float(self.summary.max));
        m.insert("spread".into(), Value::Float(self.summary.spread));
        if let Some((pct, value)) = self.summary.tail {
            m.insert("tail_pct".into(), Value::Float(pct));
            m.insert("tail".into(), Value::Float(value));
        }
        if self.derived {
            m.insert("derived".into(), Value::from(true));
        }
        Value::Object(m)
    }
}

/// Everything one workload's run produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Which workload.
    pub workload: Workload,
    /// Operations attempted (script ops or pings), warm-ups included.
    pub attempted: u64,
    /// Operations that failed verification.
    pub failed: u64,
    /// The metrics measured.
    pub metrics: Vec<Measured>,
    /// Recorded spans (empty unless traced).
    pub spans: Value,
}

impl Outcome {
    /// The measured metric called `name`.
    pub fn metric(&self, name: &str) -> Option<&Measured> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The one-line JSON object the driver of `BENCHMARK.json` reads:
    /// every `end_to_end` metric untraced, every `per_layer` metric
    /// traced (0 for a layer the workload does not exercise).
    ///
    /// # Errors
    /// Fails if an end-to-end metric was not measured or is not a
    /// positive number.
    pub fn driver_line(&self, traced: bool) -> Result<String, String> {
        let home = if traced { Home::PerLayer } else { Home::EndToEnd };
        let mut metrics = Map::new();
        for spec in SPECS.iter().filter(|s| s.home == home) {
            let name = spec.name();
            let value = match (self.metric(&name), traced) {
                (Some(m), _) => m.value,
                (None, true) => 0.0,
                (None, false) => return Err(format!("{name} was not measured")),
            };
            let positive = value.is_finite() && value > 0.0;
            if !traced && !positive {
                return Err(format!("{name} = {value} is not a positive number"));
            }
            metrics.insert(
                name,
                Value::from_pairs([
                    ("value", Value::Float(value)),
                    ("unit", Value::from(spec.unit)),
                ]),
            );
        }
        Ok(Value::from_pairs([
            ("correct", Value::from(self.failed == 0)),
            ("attempted", Value::from(self.attempted as i64)),
            ("failed", Value::from(self.failed as i64)),
            ("metrics", Value::Object(metrics)),
        ])
        .to_json())
    }

    /// This workload's entry in a result document.
    pub fn to_value(&self) -> Value {
        let metrics: Map = self.metrics.iter().map(|m| (m.name.clone(), m.to_value())).collect();
        Value::from_pairs([
            ("why", Value::from(self.workload.why())),
            ("attempted", Value::from(self.attempted as i64)),
            ("failed", Value::from(self.failed as i64)),
            ("metrics", Value::Object(metrics)),
            ("spans", self.spans.clone()),
        ])
    }
}

/// Prints one workload's entry of a result document.
pub fn print_entry(w: Workload, entry: &Value) {
    let int = |key: &str| entry.get(key).and_then(Value::as_int).unwrap_or(0);
    println!("== {} — {}", w.name(), w.why());
    println!("   ops attempted {}, failed {}", int("attempted"), int("failed"));
    let Some(metrics) = entry.get("metrics").and_then(Value::as_object) else { return };
    for spec in SPECS {
        let Some(cell) = metrics.get(&spec.name()) else { continue };
        let num = |key: &str| cell.get(key).and_then(Value::as_float);
        let n = cell.get("n").and_then(Value::as_int).unwrap_or(1);
        let mut line = format!(
            "   {:<32} {:>16.4} {:<10} {:<6} n={n}",
            spec.name(),
            num("value").unwrap_or(f64::NAN),
            spec.unit,
            spec.better.name(),
        );
        if let (true, Some(min), Some(max)) = (n > 1, num("min"), num("max")) {
            line += &format!(" min={min:.4} max={max:.4}");
        }
        if let (Some(pct), Some(tail)) = (num("tail_pct"), num("tail")) {
            line += &format!(" p{pct:.1}={tail:.4}");
        }
        if cell.get("derived").is_some() {
            line += " (derived from wall_s)";
        }
        println!("{line}");
    }
}

/// Assembles a result document: provenance, then one entry per workload.
pub fn document(mode: &str, seed: u64, workloads: Vec<(String, Value)>) -> Value {
    Value::from_pairs([
        ("schema", Value::from(SCHEMA)),
        ("mode", Value::from(mode)),
        ("seed", Value::from(seed as i64)),
        ("nproc", Value::from(sys::nproc())),
        ("rustc", Value::from(sys::rustc_version())),
        ("commit", Value::from(sys::git_commit())),
        ("build", Value::from(if cfg!(debug_assertions) { "debug" } else { "release" })),
        (
            "transport",
            Value::from("simulator in virtual time; live_ping over host loopback in wall-clock"),
        ),
        ("workloads", Value::Object(workloads.into_iter().collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_units_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for s in SPECS {
            let name = s.name();
            assert!(seen.insert(name.clone()), "{name} twice");
            assert!(name.len() <= 64 && s.unit.len() <= 16, "{name}");
            assert_eq!(s.bound.is_some(), s.layer.is_empty() && s.op != "trace_overhead_pct");
            assert!(s.bound.is_none_or(|b| (0.0..=0.25).contains(&b)), "{name}");
        }
        assert_eq!(SPECS.iter().filter(|s| s.bound.is_some()).count(), 11);
        assert_eq!(SPECS.iter().filter(|s| !s.layer.is_empty()).count(), 41 + 2);
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_driver_lines_carry() {
        let doc = Value::parse(include_str!("../../../BENCHMARK.json")).unwrap();
        for (key, home) in [("end_to_end", Home::EndToEnd), ("per_layer", Home::PerLayer)] {
            let listed = doc.get(key).and_then(Value::as_array).unwrap();
            let specs: Vec<&Spec> = SPECS.iter().filter(|s| s.home == home).collect();
            assert_eq!(listed.len(), specs.len(), "{key}");
            for (entry, spec) in listed.iter().zip(specs) {
                let text = |k: &str| entry.get(k).and_then(Value::as_str).map(str::to_owned);
                assert_eq!(text("name"), Some(spec.name()));
                assert_eq!(text("unit").as_deref(), Some(spec.unit), "{}", spec.name());
                assert_eq!(text("better").as_deref(), Some(spec.better.name()), "{}", spec.name());
                let bound = entry.get("bound").and_then(Value::as_float);
                assert_eq!(bound, spec.bound.filter(|_| home == Home::EndToEnd), "{}", spec.name());
            }
        }
        let workloads = doc.get("workloads").and_then(Value::as_array).unwrap();
        for (entry, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(entry.get("name").and_then(Value::as_str), Some(w.name()));
            assert_eq!(entry.get("why").and_then(Value::as_str), Some(w.why()));
            assert!(w.why().len() <= 200);
        }
        assert_eq!(workloads.len(), Workload::ALL.len());
        assert_eq!(
            doc.get("paths").and_then(Value::as_array).unwrap(),
            &[Value::from("crates/perf")][..]
        );
    }

    fn outcome(metrics: Vec<Measured>) -> Outcome {
        Outcome {
            workload: Workload::LivePing,
            attempted: 10,
            failed: 0,
            metrics,
            spans: Value::array(),
        }
    }

    #[test]
    fn the_untraced_driver_line_needs_every_end_to_end_metric_positive() {
        let all: Vec<Measured> = SPECS
            .iter()
            .filter(|s| s.home == Home::EndToEnd)
            .map(|s| Measured::exact(s.name(), 1.5))
            .collect();
        let line = outcome(all.clone()).driver_line(false).unwrap();
        let parsed = Value::parse(&line).unwrap();
        let keys: Vec<&String> = parsed.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(parsed.get("metrics").unwrap().as_object().unwrap().len(), 5);
        assert_eq!(parsed.get("correct"), Some(&Value::from(true)));
        assert!(!line.contains('\n'));

        assert!(outcome(all[1..].to_vec()).driver_line(false).is_err());
        let mut zero = all;
        zero[0].value = 0.0;
        assert!(outcome(zero).driver_line(false).is_err());
    }

    #[test]
    fn the_traced_driver_line_reports_unexercised_layers_as_zero() {
        let one = Measured::exact(spec("wire.encode_ns").unwrap().name(), 80.0);
        let parsed = Value::parse(&outcome(vec![one]).driver_line(true).unwrap()).unwrap();
        let metrics = parsed.get("metrics").unwrap();
        assert_eq!(metrics.as_object().unwrap().len(), 49);
        let value = |name: &str| metrics.get(name).and_then(|m| m.get("value")).cloned();
        assert_eq!(value("wire.encode_ns"), Some(Value::Float(80.0)));
        assert_eq!(value("sim.events"), Some(Value::Float(0.0)));
        assert_eq!(value("vt_makespan_ms"), Some(Value::Float(0.0)));
    }

    #[test]
    fn every_document_records_where_its_numbers_came_from() {
        let doc = document("run", 42, Vec::new());
        assert_eq!(doc.get("schema").and_then(Value::as_str), Some(SCHEMA));
        assert_eq!(doc.get("seed").and_then(Value::as_int), Some(42));
        assert!(doc.get("nproc").and_then(Value::as_int).is_some_and(|n| n >= 1));
        for key in ["rustc", "commit", "build"] {
            assert!(doc.get(key).and_then(Value::as_str).is_some_and(|s| !s.is_empty()), "{key}");
        }
        assert!(doc.get("transport").and_then(Value::as_str).unwrap().contains("loopback"));
    }
}
