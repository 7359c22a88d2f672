//! Harness-level guarantees for the sustained-RPC bench matrix.
//!
//! Every cell is wall-clock (live sockets), so nothing is pinned to
//! absolute numbers. What the committed `BENCH_rpc.json` must always
//! show — and what a regenerated file must reproduce — are the
//! *relations* the reactor exists for:
//!
//! * the frozen PR-10 head-to-head record — the pipelined reactor
//!   strictly above the thread-per-link architecture it replaced at 1k
//!   clients — is present, unedited and self-consistent (the baseline
//!   server is deleted, so the record is never regenerated);
//! * deep request windows are strictly above window 1 (pipelining pays);
//! * the 4k-client scale point exists and completed every RPC —
//!   a population the thread-per-link architecture would need 8k OS
//!   threads to serve.
//!
//! Plus a live smoke: a small cell actually runs.

use flux_bench::rpc::{self, RpcParams};
use flux_value::Value;

fn golden() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_rpc.json");
    let text = std::fs::read_to_string(path).expect("committed BENCH_rpc.json");
    Value::parse(&text).expect("BENCH_rpc.json parses")
}

fn cell<'a>(doc: &'a Value, name: &str) -> &'a Value {
    doc.get("cells")
        .and_then(Value::as_array)
        .and_then(|cells| {
            cells.iter().find(|c| c.get("name").and_then(Value::as_str) == Some(name))
        })
        .unwrap_or_else(|| panic!("cell {name} missing from BENCH_rpc.json"))
}

fn tput(doc: &Value, name: &str) -> f64 {
    cell(doc, name)
        .get("throughput_rpc_per_s")
        .and_then(Value::as_float)
        .unwrap_or_else(|| panic!("cell {name}: no throughput"))
}

#[test]
fn golden_file_passes_the_schema_check() {
    let doc = golden();
    let errs = rpc::check_schema(&doc);
    assert!(errs.is_empty(), "{errs:?}");
    assert_eq!(
        doc.get("smoke").and_then(Value::as_bool),
        Some(false),
        "committed file must be the full matrix, not a CI smoke run"
    );
}

#[test]
fn frozen_thread_per_link_record_is_present_and_self_consistent() {
    let doc = golden();
    let record = doc.get("architecture").expect("architecture record");
    assert_eq!(record, &rpc::frozen_architecture(), "the frozen record was edited or regenerated");
    assert_eq!(record.get("frozen").and_then(Value::as_bool), Some(true));
    let field = |name: &str| {
        record.get(name).and_then(Value::as_float).unwrap_or_else(|| panic!("architecture.{name}"))
    };
    let (reactor, threads) = (field("reactor_rpc_per_s"), field("threadlink_rpc_per_s"));
    assert!(
        reactor > threads,
        "pipelined reactor throughput ({reactor:.0}/s) must be strictly above \
         thread-per-link ({threads:.0}/s)"
    );
    let margin = field("reactor_over_threadlink");
    assert!(margin > 1.0);
    assert!(
        (margin - reactor / threads).abs() < 1e-9,
        "recorded margin disagrees with its throughputs"
    );
    // Only regenerable cells live in `cells`.
    for c in doc.get("cells").and_then(Value::as_array).expect("cells") {
        assert_eq!(c.get("transport").and_then(Value::as_str), Some("reactor"));
    }
}

#[test]
fn pipelining_beats_window_one() {
    let doc = golden();
    let deep = tput(&doc, "reactor/1024c/w32");
    let w1 = tput(&doc, "reactor/1024c/w1");
    assert!(
        deep > w1,
        "window-32 throughput ({deep:.0}/s) must beat window-1 ({w1:.0}/s)"
    );
    let speedup = doc
        .get("pipelining")
        .and_then(|p| p.get("speedup_deep_over_w1"))
        .and_then(Value::as_float)
        .expect("pipelining.speedup_deep_over_w1");
    assert!(speedup > 1.0);
}

#[test]
fn four_thousand_client_scale_point_is_committed() {
    let doc = golden();
    let c = cell(&doc, "reactor/4096c/w32");
    assert_eq!(c.get("clients").and_then(Value::as_int), Some(4096));
    let total = c.get("total_rpcs").and_then(Value::as_int).expect("total_rpcs");
    let per_client = c.get("per_client").and_then(Value::as_int).expect("per_client");
    assert_eq!(total, 4096 * per_client, "4k cell lost replies");
}

/// The server still runs end to end: a small live cell, every RPC
/// answered. Wall-clock — nothing about speed is asserted here (machine
/// load would make that flaky).
#[test]
fn live_smoke_completes_all_rpcs() {
    let p = RpcParams { clients: 16, window: 8, per_client: 16 };
    let r = rpc::run_cell(&p).unwrap_or_else(|e| panic!("reactor smoke failed: {e}"));
    assert_eq!(r.total_rpcs, p.total(), "reactor lost replies");
    assert!(r.p50_ns > 0 && r.p50_ns <= r.p99_ns && r.p99_ns <= r.max_ns);
}
