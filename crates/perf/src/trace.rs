//! In-memory spans recorded from the benchmark's side of each layer
//! boundary.
//!
//! The benchmark measures the program from outside, so the spans are
//! around its own calls into each layer: `workload` → `generate`, `run`,
//! `verify`, then one `probe.<layer>.<op>` span per layer probe, each
//! carrying the number of operations it covered. Spans stay in memory
//! and are written once, at exit. A disabled tracer records nothing, so
//! end-to-end numbers are always measured with tracing off.

use flux_value::Value;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// What ran.
    pub name: String,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Operations the span covered (its duration ÷ `count` is the cost
    /// of one).
    pub count: u64,
}

/// An open span, returned by [`Tracer::enter`].
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

/// Records spans when enabled; costs two clock reads when not.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only times.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &str) -> Open {
        let start = Instant::now();
        let index = self.enabled.then(|| {
            self.spans.push(Span {
                name: name.to_owned(),
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                end_ns: 0,
                parent: self.open.last().copied(),
                count: 0,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { index, start }
    }

    /// Closes `open`, noting it covered `count` operations, and returns
    /// its duration in seconds.
    pub fn exit(&mut self, open: Open, count: u64) -> f64 {
        let end = Instant::now();
        if let Some(index) = open.index {
            let span = &mut self.spans[index];
            span.end_ns = end.duration_since(self.epoch).as_nanos() as u64;
            span.count = count;
            self.open.retain(|&i| i != index);
        }
        end.duration_since(open.start).as_secs_f64()
    }

    /// The recorded spans as a JSON array, for `trace.json`.
    pub fn to_value(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    Value::from_pairs([
                        ("name", Value::from(s.name.as_str())),
                        ("start_ns", Value::from(s.start_ns as i64)),
                        ("end_ns", Value::from(s.end_ns as i64)),
                        ("parent", s.parent.map_or(Value::Null, |p| Value::from(p as i64))),
                        ("count", Value::from(s.count as i64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        let mut t = Tracer::new(true);
        let outer = t.enter("workload");
        let inner = t.enter("run");
        assert!(t.exit(inner, 3) >= 0.0);
        let sibling = t.enter("verify");
        t.exit(sibling, 1);
        t.exit(outer, 1);
        let spans = t.to_value();
        let spans = spans.as_array().unwrap();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].get("parent"), Some(&Value::Null));
        assert_eq!(spans[1].get("parent").and_then(Value::as_int), Some(0));
        assert_eq!(spans[2].get("parent").and_then(Value::as_int), Some(0));
        assert_eq!(spans[1].get("count").and_then(Value::as_int), Some(3));
        let (s, e) = (spans[0].get("start_ns").unwrap(), spans[0].get("end_ns").unwrap());
        assert!(e.as_int() >= s.as_int());
    }

    #[test]
    fn a_disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        let open = t.enter("run");
        assert!(t.exit(open, 1) >= 0.0);
        assert_eq!(t.to_value().as_array().unwrap().len(), 0);
    }
}
