//! The KAP evaluation harness: a deterministic cell matrix over
//! (value size × redundancy × transport), per-phase latency percentiles,
//! commit throughput, and bytes-on-wire, emitted as the machine-readable
//! `BENCH_kap.json` document CI smokes against.
//!
//! Simulator cells run in virtual time and are bit-for-bit reproducible:
//! the same parameters always produce the same JSON. That includes each
//! sim cell's `heap` (its peak live bytes, allocator calls and bytes
//! asked for, [`flux_sys::heap`]) where `flux_sys::CountingAlloc` is the
//! global allocator, as in the `kap` binary; elsewhere it reads 0. Live cells
//! (`tcp`) measure wall-clock latencies and vary run to run;
//! regression checks therefore only compare `sim` cells.
//!
//! The harness also measures the KVS hot-path optimization directly:
//! the `optimization` section runs the redundant-consumer cell twice — once
//! with master-side push batching disabled, once with the shipped
//! defaults — and records the margin.

use crate::runner::{run_kap_full, KapParams, KapRun, ProducerMode, SyncMode};
use flux_broker::RankOverlay;
use flux_kvs::KvsConfig;
use flux_rt::transport::{LiveTransport, SimTransport, TransportKind};
use flux_value::{Map, Value};

/// Schema tag stamped into every document; bump on breaking layout
/// changes so the CI smoke fails loudly instead of misreading fields.
const SCHEMA: &str = "flux-kap-bench/v1";

/// Runs one configuration on `transport`. Sim sessions pick the
/// rank-addressed overlay to match the workload: sharded cells route
/// commit parts rank-addressed on the hot path, so they run the fully
/// connected overlay instead of the prototype's debugging ring —
/// tree-edge relaying would funnel every cross-subtree commit part
/// through the root broker's send path.
pub fn run_on(transport: TransportKind, p: &KapParams) -> KapRun {
    match transport {
        TransportKind::Tcp => run_kap_full(p, &LiveTransport::default()),
        TransportKind::Sim => {
            let overlay = if p.kvs.shards > 1 { RankOverlay::Full } else { RankOverlay::Ring };
            run_kap_full(p, &SimTransport { overlay, ..SimTransport::default() })
        }
    }
}

/// One benchmark cell: a named KAP configuration on one transport.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Stable id, e.g. `sim/v512/redundant`.
    pub name: String,
    /// Runtime the cell runs on.
    pub transport: TransportKind,
    /// The full KAP configuration.
    pub params: KapParams,
}

/// Nearest-rank percentile of a sorted slice.
fn pct(sorted: &[u64], p: usize) -> u64 {
    sorted[(sorted.len() - 1) * p / 100]
}

fn phase_value(mut lats: Vec<u64>) -> Value {
    lats.sort_unstable();
    Value::from_pairs([
        ("p50_ns", Value::from(pct(&lats, 50) as i64)),
        ("p99_ns", Value::from(pct(&lats, 99) as i64)),
        ("max_ns", Value::from(*lats.last().expect("nonempty") as i64)),
    ])
}

/// Runs one cell on this thread, and reads the heap the run used. The
/// process-wide topic tables are built first: they are not the cell's.
pub fn run_counted(cell: &Cell) -> (KapRun, flux_sys::Heap) {
    flux_proto::intern_topics();
    flux_sys::heap(|| run_on(cell.transport, &cell.params))
}

/// Runs one cell and renders its JSON record.
fn run_cell(cell: &Cell) -> Value {
    let (run, heap) = run_counted(cell);
    cell_value(cell, &run, heap)
}

fn cell_value(cell: &Cell, run: &KapRun, heap: flux_sys::Heap) -> Value {
    let p = &cell.params;
    // Sharded cells carry the shard count; classic cells stay
    // byte-identical to pre-sharding documents.
    let shards = p.kvs.shards.max(1);
    let producer: Vec<u64> = run.phases.iter().map(|ph| ph.producer_ns).collect();
    let sync: Vec<u64> = run.phases.iter().map(|ph| ph.sync_ns).collect();
    let consumer: Vec<u64> = run.phases.iter().map(|ph| ph.consumer_ns).collect();
    // Commit throughput: every producer's write-back set lands exactly
    // once (one commit or one fence contribution); the denominator is
    // the critical path from barrier exit to sync completion.
    let commit_window_ns = pct(&{
        let mut v: Vec<u64> = run
            .phases
            .iter()
            .map(|ph| ph.producer_ns + ph.sync_ns)
            .collect();
        v.sort_unstable();
        v
    }, 100)
    .max(1);
    let throughput = p.producers as f64 * 1e9 / commit_window_ns as f64;
    let mut pairs = vec![
        ("name", Value::from(cell.name.as_str())),
        ("transport", Value::from(cell.transport.name())),
        ("deterministic", Value::from(cell.transport == TransportKind::Sim)),
        ("value_size", Value::from(p.value_size)),
        ("redundant", Value::from(p.redundant)),
        ("nodes", Value::from(p.nodes)),
        ("procs_per_node", Value::from(p.procs_per_node)),
        ("producers", Value::from(p.producers as i64)),
        ("consumers", Value::from(p.consumers as i64)),
        ("nputs", Value::from(p.nputs as i64)),
        ("naccess", Value::from(p.naccess as i64)),
        (
            "sync",
            Value::from(match p.sync_mode {
                SyncMode::Fence => "fence",
                SyncMode::WaitVersion => "wait_version",
            }),
        ),
        (
            "producer_mode",
            Value::from(match p.producer_mode {
                ProducerMode::Fence => "fence",
                ProducerMode::Commit => "commit",
            }),
        ),
        (
            "phases",
            Value::from_pairs([
                ("producer", phase_value(producer)),
                ("sync", phase_value(sync)),
                ("consumer", phase_value(consumer)),
            ]),
        ),
        ("makespan_ns", Value::from(run.makespan_ns as i64)),
        ("commit_throughput_per_s", Value::Float(throughput)),
        ("bytes_on_wire", Value::from(run.bytes as i64)),
        ("events", Value::from(run.events as i64)),
    ];
    if shards > 1 {
        pairs.push(("shards", Value::from(i64::from(shards))));
    }
    // Live cells run threads: their heap is neither whole nor repeatable.
    if cell.transport == TransportKind::Sim {
        let count = |n: u64| Value::from(n as i64);
        pairs.push((
            "heap",
            Value::from_pairs([
                ("peak_bytes", count(heap.peak_bytes)),
                ("calls", count(heap.calls)),
                ("bytes", count(heap.bytes)),
            ]),
        ));
    }
    Value::from_pairs(pairs)
}

fn base_params(value_size: usize, redundant: bool) -> KapParams {
    let mut p = KapParams::populated(4, 4);
    p.value_size = value_size;
    p.redundant = redundant;
    p.nputs = 2;
    p.naccess = 4;
    p
}

/// The benchmark matrix: (value size × redundancy × transport) cells,
/// plus one wait_version-sync cell per transport. `quick` restricts to
/// the deterministic simulator cells — the CI smoke matrix.
fn matrix_cells(quick: bool) -> Vec<Cell> {
    let transports = if quick {
        vec![TransportKind::Sim]
    } else {
        vec![TransportKind::Sim, TransportKind::Tcp]
    };
    let mut cells = Vec::new();
    for &t in &transports {
        for &value_size in &[8usize, 512, 8192] {
            for &redundant in &[false, true] {
                let tag = if redundant { "redundant" } else { "unique" };
                cells.push(Cell {
                    name: format!("{}/v{value_size}/{tag}", t.name()),
                    transport: t,
                    params: base_params(value_size, redundant),
                });
            }
        }
        // A causal-sync cell: single producer commits, every consumer
        // wait_versions then reads — the KVS commit/wait hot path with
        // no collective.
        let mut p = base_params(512, false);
        p.producer_mode = ProducerMode::Commit;
        p.sync_mode = SyncMode::WaitVersion;
        p.producers = 1;
        p.nputs = 8;
        p.naccess = 4;
        cells.push(Cell {
            name: format!("{}/wait_version/v512", t.name()),
            transport: t,
            params: p,
        });
    }
    cells
}

/// Rank counts of the paper-scale sweep: 16 processes per node, 8 → 512
/// nodes. The top entry is the paper's full evaluation scale.
pub const SWEEP_RANKS: [u32; 4] = [128, 512, 2048, 8192];

fn sweep_base(ranks: u32) -> KapParams {
    let mut p = KapParams::fully_populated(ranks / 16);
    p.producers = p.total_procs();
    p.consumers = p.total_procs();
    p.value_size = 512;
    p
}

/// The scale-sweep cells: at each [`SWEEP_RANKS`] scale, a fence cell
/// with unique values, a fence cell with redundant values, and a
/// single-producer `wait_version` cell. All sim (deterministic). The
/// trio pins the paper's scaling shapes:
///
/// * fence consumer phase ~linear in rank count (the object space grows
///   with the producers, so collective reads move ever-larger
///   directories);
/// * `wait_version` consumer phase sub-linear (a fixed object set read
///   through the log-depth cache tree);
/// * unique vs redundant divergence: content dedup flattens the
///   redundant series while the unique one keeps growing.
pub fn scale_sweep_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for &ranks in &SWEEP_RANKS {
        for &redundant in &[false, true] {
            let tag = if redundant { "redundant" } else { "unique" };
            cells.push(Cell {
                name: format!("scale/fence/{tag}/r{ranks}"),
                transport: TransportKind::Sim,
                params: { let mut p = sweep_base(ranks); p.redundant = redundant; p },
            });
        }
        let mut p = sweep_base(ranks);
        p.producer_mode = ProducerMode::Commit;
        p.sync_mode = SyncMode::WaitVersion;
        p.producers = 1;
        p.nputs = 8;
        p.naccess = 4;
        cells.push(Cell {
            name: format!("scale/wait_version/r{ranks}"),
            transport: TransportKind::Sim,
            params: p,
        });
    }
    cells
}

/// Rank count of the sharded-commit comparison pair: the paper's
/// mid-sweep scale, large enough that the single master is the
/// serialization bottleneck.
const SHARD_SCALE_RANKS: u32 = 2048;

/// Shard-master count of the sharded comparison cell.
const SHARD_SCALE_SHARDS: u32 = 4;

/// The sharded-commit comparison pair at [`SHARD_SCALE_RANKS`] ranks:
/// every producer issues an independent commit, once against the classic
/// single master and once with the namespace sharded across
/// [`SHARD_SCALE_SHARDS`] masters. Both cells are sim (deterministic);
/// the harness pins the sharded cell byte-for-byte and requires its
/// commit throughput to beat the single-master cell — concurrent pushes
/// spread across shard masters instead of serializing at the root.
fn shard_scale_cells() -> Vec<Cell> {
    vec![commit_cell(SHARD_SCALE_RANKS, 1), commit_cell(SHARD_SCALE_RANKS, SHARD_SCALE_SHARDS)]
}

/// The concurrent-commit cell at `ranks` testers with the namespace
/// sharded across `shards` masters (1 = the classic single master).
/// Also the `kap scale-smoke --shards N` workload.
pub fn commit_cell(ranks: u32, shards: u32) -> Cell {
    let mut p = sweep_base(ranks);
    p.producer_mode = ProducerMode::Commit;
    p.nputs = 1;
    p.naccess = 1;
    // Fat values make the cell bandwidth-bound: the interesting
    // quantity is how the value stream shares master links, not the
    // per-message software overhead.
    p.value_size = 4096;
    // A wide batch window keeps both cells batch_max-bound, so the
    // flush (and setroot-broadcast) count is identical across shard
    // counts and the pair isolates the master-spread effect.
    p.kvs = KvsConfig { shards, batch_window_ns: 50_000, ..KvsConfig::default() };
    let name = if shards == 1 {
        format!("scale/commit/r{ranks}")
    } else {
        format!("scale/commit/r{ranks}/shards{shards}")
    };
    Cell { name, transport: TransportKind::Sim, params: p }
}

/// Runs the sharded-commit pair and renders its JSON section.
pub fn run_shard_scale() -> Value {
    Value::from_pairs([
        ("ranks", Value::from(i64::from(SHARD_SCALE_RANKS))),
        ("shards", Value::from(i64::from(SHARD_SCALE_SHARDS))),
        (
            "cells",
            Value::Array(shard_scale_cells().iter().map(run_cell).collect()),
        ),
    ])
}

/// Runs the paper-scale sweep and renders its JSON section. Only in the
/// full (non-quick) document: the 8192-rank cells are seconds each in
/// release builds but would dominate debug test time.
fn run_scale_sweep() -> Value {
    let cells: Vec<Value> = scale_sweep_cells().iter().map(run_cell).collect();
    Value::from_pairs([
        (
            "ranks",
            Value::Array(SWEEP_RANKS.iter().map(|&r| Value::from(i64::from(r))).collect()),
        ),
        ("cells", Value::Array(cells)),
    ])
}

/// The redundant-consumer margin cell: concurrent per-producer commits
/// (the push-batching hot path) with redundant values and repeat
/// consumer reads.
fn margin_params(kvs: KvsConfig) -> KapParams {
    let mut p = KapParams::populated(8, 4);
    p.value_size = 4096;
    p.redundant = true;
    p.nputs = 2;
    p.naccess = 8;
    p.producer_mode = ProducerMode::Commit;
    p.kvs = kvs;
    p
}

/// The pre-optimization KVS: no master-side push batching — every push
/// applies on arrival.
fn baseline_kvs() -> KvsConfig {
    KvsConfig { batch_window_ns: 0, ..KvsConfig::default() }
}

fn margin_side(kvs: KvsConfig) -> (KapRun, Value) {
    let p = margin_params(kvs);
    let run = run_on(TransportKind::Sim, &p);
    let v = Value::from_pairs([
        ("makespan_ns", Value::from(run.makespan_ns as i64)),
        ("bytes_on_wire", Value::from(run.bytes as i64)),
        ("events", Value::from(run.events as i64)),
        (
            "producer_max_ns",
            Value::from(run.phases.iter().map(|ph| ph.producer_ns).max().unwrap_or(0) as i64),
        ),
        (
            "consumer_max_ns",
            Value::from(run.phases.iter().map(|ph| ph.consumer_ns).max().unwrap_or(0) as i64),
        ),
    ]);
    (run, v)
}

/// Runs the redundant-consumer cell against both KVS configurations and
/// reports the measured optimization margin (deterministic: sim only).
fn optimization_report() -> Value {
    let (base_run, base_v) = margin_side(baseline_kvs());
    let (opt_run, opt_v) = margin_side(KvsConfig::default());
    let speedup = base_run.makespan_ns as f64 / opt_run.makespan_ns.max(1) as f64;
    let bytes_saved = base_run.bytes.saturating_sub(opt_run.bytes);
    Value::from_pairs([
        ("cell", Value::from("sim/v4096/redundant-consumers")),
        ("baseline", base_v),
        ("optimized", opt_v),
        ("makespan_speedup", Value::Float(speedup)),
        ("bytes_saved", Value::from(bytes_saved as i64)),
        (
            "events_saved",
            Value::from(base_run.events.saturating_sub(opt_run.events) as i64),
        ),
    ])
}

/// Runs the whole matrix and assembles the `BENCH_kap.json` document.
pub fn run_matrix(quick: bool) -> Value {
    let cells = matrix_cells(quick);
    let mut rendered = Vec::with_capacity(cells.len());
    for c in &cells {
        rendered.push(run_cell(c));
    }
    let mut doc = Map::new();
    doc.insert("schema".into(), Value::from(SCHEMA));
    doc.insert("quick".into(), Value::from(quick));
    doc.insert(
        "matrix".into(),
        Value::from_pairs([
            ("value_sizes", Value::Array(vec![Value::from(8), Value::from(512), Value::from(8192)])),
            ("redundancy", Value::Array(vec![Value::from(false), Value::from(true)])),
            (
                "transports",
                Value::Array(if quick {
                    vec![Value::from("sim")]
                } else {
                    vec![Value::from("sim"), Value::from("tcp")]
                }),
            ),
        ]),
    );
    doc.insert("cells".into(), Value::Array(rendered));
    doc.insert("optimization".into(), optimization_report());
    if !quick {
        doc.insert("scale_sweep".into(), run_scale_sweep());
        doc.insert("shard_scale".into(), run_shard_scale());
    }
    Value::Object(doc)
}

/// Validates the shape of a `BENCH_kap.json` document. Returns a list
/// of problems; empty means the schema holds.
pub fn check_schema(doc: &Value) -> Vec<String> {
    let mut errs = Vec::new();
    if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        errs.push(format!("schema tag is not {SCHEMA:?}"));
    }
    let Some(cells) = doc.get("cells").and_then(Value::as_array) else {
        errs.push("missing cells array".into());
        return errs;
    };
    if cells.is_empty() {
        errs.push("cells array is empty".into());
    }
    for (i, c) in cells.iter().enumerate() {
        for key in [
            "name",
            "transport",
            "value_size",
            "redundant",
            "phases",
            "makespan_ns",
            "commit_throughput_per_s",
            "bytes_on_wire",
        ] {
            if c.get(key).is_none() {
                errs.push(format!("cell {i}: missing {key}"));
            }
        }
        let Some(phases) = c.get("phases") else { continue };
        for phase in ["producer", "sync", "consumer"] {
            let Some(p) = phases.get(phase) else {
                errs.push(format!("cell {i}: missing phase {phase}"));
                continue;
            };
            for stat in ["p50_ns", "p99_ns", "max_ns"] {
                if p.get(stat).and_then(Value::as_int).is_none() {
                    errs.push(format!("cell {i}: phase {phase} missing {stat}"));
                }
            }
        }
    }
    let Some(opt) = doc.get("optimization") else {
        errs.push("missing optimization report".into());
        return errs;
    };
    for key in ["cell", "baseline", "optimized", "makespan_speedup", "bytes_saved"] {
        if opt.get(key).is_none() {
            errs.push(format!("optimization: missing {key}"));
        }
    }
    // Full documents must carry the paper-scale sweep, one record per
    // (scale × {fence-unique, fence-redundant, wait_version}) cell.
    if doc.get("quick").and_then(Value::as_bool) == Some(false) {
        match doc.get("scale_sweep").and_then(|s| s.get("cells")).and_then(Value::as_array) {
            Some(cells) if cells.len() == 3 * SWEEP_RANKS.len() => {}
            Some(cells) => {
                errs.push(format!(
                    "scale_sweep has {} cells, want {}",
                    cells.len(),
                    3 * SWEEP_RANKS.len()
                ));
            }
            None => errs.push("full document missing scale_sweep.cells".into()),
        }
        // And the sharded-commit comparison pair: single-master vs
        // N-shard commit cells at the same rank count.
        match doc.get("shard_scale").and_then(|s| s.get("cells")).and_then(Value::as_array) {
            Some(cells) if cells.len() == 2 => {
                let second = cells.last().and_then(|c| c.get("shards")).and_then(Value::as_int);
                if second.is_none_or(|s| s <= 1) {
                    errs.push("shard_scale: second cell is not sharded".into());
                }
            }
            Some(cells) => {
                errs.push(format!("shard_scale has {} cells, want 2", cells.len()));
            }
            None => errs.push("full document missing shard_scale.cells".into()),
        }
    }
    errs
}

/// Compares deterministic (sim) cells of a fresh run against a reference
/// document. Returns problems; empty means every matched cell is within
/// `factor`× of the reference makespan (and no sim cell disappeared).
pub fn check_regression(current: &Value, reference: &Value, factor: f64) -> Vec<String> {
    let mut errs = Vec::new();
    let empty = Vec::new();
    let cur = current.get("cells").and_then(Value::as_array).unwrap_or(&empty);
    let refs = reference.get("cells").and_then(Value::as_array).unwrap_or(&empty);
    for r in refs {
        if r.get("deterministic").and_then(Value::as_bool) != Some(true) {
            continue;
        }
        let Some(name) = r.get("name").and_then(Value::as_str) else { continue };
        let Some(c) = cur
            .iter()
            .find(|c| c.get("name").and_then(Value::as_str) == Some(name))
        else {
            errs.push(format!("reference cell {name} missing from current run"));
            continue;
        };
        let r_ms = r.get("makespan_ns").and_then(Value::as_int).unwrap_or(0).max(1) as f64;
        let c_ms = c.get("makespan_ns").and_then(Value::as_int).unwrap_or(0) as f64;
        if c_ms > r_ms * factor {
            errs.push(format!(
                "cell {name}: makespan {c_ms} > {factor}x reference {r_ms}"
            ));
        }
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_matrix_is_deterministic_and_well_formed() {
        let a = run_matrix(true);
        let b = run_matrix(true);
        assert_eq!(a.to_json(), b.to_json(), "sim matrix must be reproducible");
        assert!(check_schema(&a).is_empty(), "{:?}", check_schema(&a));
    }

    #[test]
    fn quick_matrix_covers_the_parameter_space() {
        let cells = matrix_cells(true);
        // 3 value sizes x 2 redundancy + 1 wait_version cell, sim only.
        assert_eq!(cells.len(), 7);
        assert!(cells.iter().all(|c| c.transport == TransportKind::Sim));
        let full = matrix_cells(false);
        assert_eq!(full.len(), 14, "2 transports x 7 cells");
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v = phase_value(vec![10, 20, 30, 40]);
        assert_eq!(v.get("p50_ns").and_then(Value::as_int), Some(20));
        assert_eq!(v.get("max_ns").and_then(Value::as_int), Some(40));
    }

    #[test]
    fn regression_check_flags_slowdowns_only() {
        let reference = run_matrix(true);
        assert!(check_regression(&reference, &reference, 2.0).is_empty());
        // A fabricated 3x slower "current" run must trip the check.
        let mut slow = reference.clone();
        if let Value::Object(doc) = &mut slow {
            if let Some(Value::Array(cells)) = doc.get_mut("cells") {
                if let Some(Value::Object(cell)) = cells.first_mut() {
                    let ms = cell.get("makespan_ns").and_then(Value::as_int).unwrap();
                    cell.insert("makespan_ns".into(), Value::from(ms * 3));
                }
            }
        }
        assert!(!check_regression(&slow, &reference, 2.0).is_empty());
    }

    #[test]
    fn optimization_margin_is_measured_and_positive() {
        let report = optimization_report();
        let speedup = match report.get("makespan_speedup") {
            Some(Value::Float(f)) => *f,
            other => panic!("{other:?}"),
        };
        let bytes_saved = report.get("bytes_saved").and_then(Value::as_int).unwrap();
        assert!(
            bytes_saved > 0,
            "batching must cut setroot broadcast bytes (saved {bytes_saved})"
        );
        assert!(
            speedup > 1.0,
            "optimized path must beat the pre-PR baseline (speedup {speedup})"
        );
    }
}
