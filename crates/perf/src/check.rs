//! `check A.json B.json`: is B worse than A?
//!
//! One row per metric × workload present in both files. An end-to-end
//! metric is `worse` or `better` when B's value is beyond A's by more
//! than the metric's bound, `unresolved` when it is within the bound but
//! B's own spread (interquartile range over median of its reps) is wider
//! than the bound — so "no change" cannot be told from "lost in noise" —
//! and `same` otherwise. Per-layer metrics have no bound and are listed
//! for attribution only.

use crate::report::{spec, Better, SCHEMA};
use flux_value::Value;

/// What a row concludes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Within the bound, and B's spread is too.
    Same,
    /// Better by more than the bound.
    Better,
    /// Worse by more than the bound.
    Worse,
    /// Within the bound, but B's spread is wider than the bound.
    Unresolved,
    /// A per-layer metric: no bound, no verdict.
    Layer,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Layer => "-",
        }
    }
}

/// One compared metric of one workload.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Value in A.
    pub a: f64,
    /// Value in B.
    pub b: f64,
    /// The conclusion.
    pub verdict: Verdict,
}

/// The verdict on one end-to-end metric.
fn judge(a: f64, b: f64, b_spread: f64, better: Better, bound: f64) -> Verdict {
    let worse_by = if better == Better::Lower { b - a } else { a - b };
    let allowed = bound * a.abs();
    if worse_by > allowed {
        Verdict::Worse
    } else if -worse_by > allowed {
        Verdict::Better
    } else if b_spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

/// Compares two result documents.
///
/// # Errors
/// Fails if either is not a `flux-perf/v1` document.
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let workloads = |doc: &Value, which: &str| {
        if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
            return Err(format!("{which} is not a {SCHEMA} document"));
        }
        doc.get("workloads")
            .and_then(Value::as_object)
            .cloned()
            .ok_or_else(|| format!("{which} has no workloads"))
    };
    let (wa, wb) = (workloads(a, "A")?, workloads(b, "B")?);
    let mut rows = Vec::new();
    for (workload, entry_a) in &wa {
        let Some(entry_b) = wb.get(workload) else { continue };
        let metrics = |e: &Value| e.get("metrics").and_then(Value::as_object).cloned();
        let (Some(ma), Some(mb)) = (metrics(entry_a), metrics(entry_b)) else { continue };
        for (metric, cell_a) in &ma {
            let (Some(cell_b), Some(spec)) = (mb.get(metric), spec(metric)) else { continue };
            let number = |cell: &Value, key: &str| cell.get(key).and_then(Value::as_float);
            let (Some(va), Some(vb)) = (number(cell_a, "value"), number(cell_b, "value")) else {
                continue;
            };
            let verdict = match spec.bound {
                Some(bound) => {
                    judge(va, vb, number(cell_b, "spread").unwrap_or(0.0), spec.better, bound)
                }
                None => Verdict::Layer,
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.clone(),
                a: va,
                b: vb,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// Prints the rows; returns true if any is `worse` (a rise in
/// `fail_ratio`, whose bound is 0, is one of those).
pub fn print(rows: &[Row]) -> bool {
    println!("{:<20} {:<32} {:>16} {:>16} {:>8}  verdict", "workload", "metric", "A", "B", "B/A");
    for r in rows {
        let ratio = if r.a == 0.0 { f64::NAN } else { r.b / r.a };
        println!(
            "{:<20} {:<32} {:>16.4} {:>16.4} {:>8.3}  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            ratio,
            r.verdict.name()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} same, {} better, {} worse, {} unresolved",
        count(Verdict::Same),
        count(Verdict::Better),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    );
    count(Verdict::Worse) > 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Workload;
    use crate::report::{document, Measured, Outcome};

    fn doc(wall: &[f64], failed: u64) -> Value {
        let out = Outcome {
            workload: Workload::Fence8k,
            attempted: 100,
            failed,
            metrics: vec![
                Measured::median("wall_s", wall),
                Measured::exact("fail_ratio", failed as f64 / 100.0),
                Measured::exact("sim.events", 5.0),
            ],
            spans: Value::array(),
        };
        document("run", 1, vec![(out.workload.name().to_owned(), out.to_value())])
    }

    fn verdict_of(rows: &[Row], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn a_file_is_the_same_as_itself() {
        let a = doc(&[1.0, 1.01, 1.02, 0.99], 0);
        let rows = compare(&a, &a).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(verdict_of(&rows, "wall_s"), Verdict::Same);
        assert_eq!(verdict_of(&rows, "fail_ratio"), Verdict::Same);
        assert_eq!(verdict_of(&rows, "sim.events"), Verdict::Layer);
        assert!(!print(&rows));
    }

    #[test]
    fn beyond_the_bound_is_worse_or_better_by_direction() {
        let a = doc(&[1.0, 1.0, 1.0, 1.0], 0);
        let slow = doc(&[1.5, 1.5, 1.5, 1.5], 0);
        assert_eq!(verdict_of(&compare(&a, &slow).unwrap(), "wall_s"), Verdict::Worse);
        assert_eq!(verdict_of(&compare(&slow, &a).unwrap(), "wall_s"), Verdict::Better);
        assert!(print(&compare(&a, &slow).unwrap()));
        assert_eq!(judge(100.0, 80.0, 0.0, Better::Higher, 0.1), Verdict::Worse);
        assert_eq!(judge(100.0, 120.0, 0.0, Better::Higher, 0.1), Verdict::Better);
    }

    #[test]
    fn a_noisy_b_within_the_bound_is_unresolved_not_same() {
        let a = doc(&[1.0, 1.0, 1.0, 1.0], 0);
        let noisy = doc(&[0.6, 0.8, 1.0, 1.3, 1.5], 0);
        assert_eq!(verdict_of(&compare(&a, &noisy).unwrap(), "wall_s"), Verdict::Unresolved);
    }

    #[test]
    fn any_rise_in_fail_ratio_is_worse() {
        let a = doc(&[1.0], 0);
        let b = doc(&[1.0], 1);
        let rows = compare(&a, &b).unwrap();
        assert_eq!(verdict_of(&rows, "fail_ratio"), Verdict::Worse);
        assert!(print(&rows));
    }

    #[test]
    fn other_documents_are_refused() {
        let a = doc(&[1.0], 0);
        assert!(compare(&a, &Value::object()).is_err());
    }
}
