//! Harness-level guarantees for the KAP bench matrix:
//!
//! * determinism — the sim-only matrix is byte-identical run to run;
//! * schema — the committed `BENCH_kap.json` golden file validates, and
//!   a fresh run matches its deterministic cells' exact numbers, their
//!   heap included (this binary counts it as `kap` does);
//! * regression — a fresh quick run stays within 2× of the golden file
//!   (the same gate the CI bench-smoke job applies);
//! * figures — the `--quick` cells of `kap fig1` and `kap ablate` are
//!   pinned to the nanosecond, with the shape each table exists to show.

use flux_kap::{ablate, bench};
use flux_kap::{run_kap_full, KapParams};
use flux_rt::transport::SimTransport;
use flux_value::Value;

#[global_allocator]
static ALLOC: flux_sys::CountingAlloc = flux_sys::CountingAlloc;

fn golden() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kap.json");
    let text = std::fs::read_to_string(path).expect("committed BENCH_kap.json");
    Value::parse(&text).expect("BENCH_kap.json parses")
}

#[test]
fn sim_matrix_is_byte_identical_across_runs() {
    let a = bench::run_matrix(true).to_json_pretty();
    let b = bench::run_matrix(true).to_json_pretty();
    assert_eq!(a, b);
}

#[test]
fn golden_file_passes_the_schema_check() {
    let doc = golden();
    let errs = bench::check_schema(&doc);
    assert!(errs.is_empty(), "{errs:?}");
    // The acceptance floor: at least 12 (value size x redundancy x
    // transport) cells.
    let cells = doc.get("cells").and_then(Value::as_array).unwrap();
    assert!(cells.len() >= 12, "only {} cells committed", cells.len());
    // And the optimization margin is recorded and positive.
    let opt = doc.get("optimization").unwrap();
    assert!(opt.get("makespan_speedup").and_then(Value::as_float).unwrap() > 1.0);
    assert!(opt.get("bytes_saved").and_then(Value::as_int).unwrap() > 0);
}

#[test]
fn fresh_quick_run_is_within_2x_of_the_golden_file() {
    let current = bench::run_matrix(true);
    let mut errs = bench::check_schema(&current);
    errs.extend(bench::check_regression(&current, &golden(), 2.0));
    assert!(errs.is_empty(), "{errs:?}");
}

/// Pulls `(ranks, <metric>)` series for one scale-sweep cell family out
/// of the committed golden file.
fn sweep_series(doc: &Value, prefix: &str, phase: &str) -> Vec<(f64, f64)> {
    let ranks = doc
        .get("scale_sweep")
        .and_then(|s| s.get("ranks"))
        .and_then(Value::as_array)
        .expect("golden scale_sweep.ranks");
    let cells = doc
        .get("scale_sweep")
        .and_then(|s| s.get("cells"))
        .and_then(Value::as_array)
        .expect("golden scale_sweep.cells");
    ranks
        .iter()
        .map(|r| {
            let r = r.as_int().unwrap();
            let name = format!("{prefix}/r{r}");
            let cell = cells
                .iter()
                .find(|c| c.get("name").and_then(Value::as_str) == Some(name.as_str()))
                .unwrap_or_else(|| panic!("sweep cell {name} missing"));
            let v = cell
                .get("phases")
                .and_then(|p| p.get(phase))
                .and_then(|p| p.get("max_ns"))
                .and_then(Value::as_int)
                .unwrap_or_else(|| panic!("sweep cell {name}: no {phase} max_ns"));
            (r as f64, v as f64)
        })
        .collect()
}

/// Log-log endpoint slope: ~1 means latency grows linearly with ranks,
/// ~0 means it is flat.
fn loglog_slope(series: &[(f64, f64)]) -> f64 {
    let (x0, y0) = series[0];
    let (x1, y1) = *series.last().unwrap();
    (y1 / y0).ln() / (x1 / x0).ln()
}

/// The paper's scaling shapes, pinned against the committed sweep:
/// collective (fence) consumer reads grow ~linearly with rank count,
/// while `wait_version` consumers reading a fixed object set through the
/// cache tree stay ~flat (sub-linear).
#[test]
fn sweep_consumer_slopes_fence_linear_wait_version_sublinear() {
    let doc = golden();
    let fence = sweep_series(&doc, "scale/fence/unique", "consumer");
    let waitv = sweep_series(&doc, "scale/wait_version", "consumer");
    let fence_slope = loglog_slope(&fence);
    let waitv_slope = loglog_slope(&waitv);
    assert!(
        (0.8..=1.4).contains(&fence_slope),
        "fence consumer slope {fence_slope:.3} is not ~linear ({fence:?})"
    );
    assert!(
        waitv_slope < 0.3,
        "wait_version consumer slope {waitv_slope:.3} is not sub-linear ({waitv:?})"
    );
    assert!(waitv_slope < fence_slope / 2.0);
    // Both series must also grow monotonically — a slope fit alone would
    // accept a zig-zag.
    for s in [&fence, &waitv] {
        assert!(s.windows(2).all(|w| w[1].1 >= w[0].1), "non-monotone series {s:?}");
    }
}

/// Unique vs redundant values diverge with scale (the paper's Fig. 3
/// shape): at small scale the fence costs are comparable, at full scale
/// content dedup leaves the redundant series far behind the unique one.
#[test]
fn sweep_unique_redundant_divergence_grows_with_scale() {
    let doc = golden();
    let unique = sweep_series(&doc, "scale/fence/unique", "sync");
    let redundant = sweep_series(&doc, "scale/fence/redundant", "sync");
    let ratios: Vec<f64> =
        unique.iter().zip(&redundant).map(|(u, r)| u.1 / r.1).collect();
    assert!(
        ratios.windows(2).all(|w| w[1] > w[0]),
        "unique/redundant fence ratio must widen with scale: {ratios:?}"
    );
    assert!(ratios[0] < 1.5, "comparable at the smallest scale: {ratios:?}");
    assert!(
        *ratios.last().unwrap() > 2.0,
        "dedup must win clearly at full scale: {ratios:?}"
    );
}

/// Determinism at mid scale: the same 1024-rank cell run twice produces
/// identical engine statistics and virtual-time results. (Wall-clock
/// fields are excluded — they are the only nondeterministic outputs.)
#[test]
fn kap_1024_rank_cell_is_deterministic() {
    let mut p = KapParams::fully_populated(64);
    p.producers = p.total_procs();
    p.consumers = p.total_procs();
    assert_eq!(p.total_procs(), 1024);
    let transport = SimTransport::default();
    let a = run_kap_full(&p, &transport);
    let b = run_kap_full(&p, &transport);
    assert_eq!(a.makespan_ns, b.makespan_ns);
    assert_eq!(a.events, b.events);
    assert_eq!(a.bytes, b.bytes);
    assert_eq!(a.phases, b.phases, "per-process phase latencies must match exactly");
}

/// The sharded-commit pair: the committed `shard_scale` section
/// reproduces byte-for-byte from a fresh run (both cells are sim-only,
/// hence deterministic), and the 4-shard cell's commit throughput
/// strictly beats the single-master cell at the same rank count — the
/// scaling claim the section exists to pin.
#[test]
fn shard_scale_pair_reproduces_exactly_and_sharding_wins() {
    let fresh = bench::run_shard_scale();
    let doc = golden();
    let committed = doc.get("shard_scale").expect("golden shard_scale section");
    assert_eq!(
        fresh.to_json_pretty(),
        committed.to_json_pretty(),
        "shard_scale drifted — regenerate BENCH_kap.json"
    );
    let cells = fresh.get("cells").and_then(Value::as_array).unwrap();
    let tput =
        |c: &&Value| c.get("commit_throughput_per_s").and_then(Value::as_float).unwrap();
    let single = cells.iter().find(|c| c.get("shards").is_none()).expect("single-master cell");
    let sharded = cells.iter().find(|c| c.get("shards").is_some()).expect("sharded cell");
    assert!(
        tput(&sharded) > tput(&single),
        "sharding must beat the single master: {} vs {}",
        tput(&sharded),
        tput(&single)
    );
}

/// Deterministic cells of the golden file reproduce *exactly*, not just
/// within the regression factor — any sim-visible change to the KVS hot
/// path must regenerate `BENCH_kap.json` (`kap bench --out BENCH_kap.json`).
#[test]
fn golden_sim_cells_reproduce_exactly() {
    let current = bench::run_matrix(true);
    let cur = current.get("cells").and_then(Value::as_array).unwrap();
    let doc = golden();
    let refs = doc.get("cells").and_then(Value::as_array).unwrap();
    for r in refs {
        if r.get("deterministic").and_then(Value::as_bool) != Some(true) {
            continue;
        }
        let name = r.get("name").and_then(Value::as_str).unwrap();
        let c = cur
            .iter()
            .find(|c| c.get("name").and_then(Value::as_str) == Some(name))
            .unwrap_or_else(|| panic!("cell {name} missing from fresh run"));
        for field in ["makespan_ns", "bytes_on_wire", "events", "phases", "heap"] {
            assert_eq!(
                c.get(field),
                r.get(field),
                "cell {name}: {field} drifted — regenerate BENCH_kap.json"
            );
        }
    }
}

/// `kap --quick fig1`: wire-up time grows with session size, and the
/// 16-ary tree is under the binary one at every size.
#[test]
fn fig1_wireup_grows_with_size_and_a_wider_tree_is_faster() {
    let cells: Vec<(u64, u64)> = [16, 64, 256]
        .iter()
        .map(|&size| (ablate::wireup_ns(size, 2), ablate::wireup_ns(size, 16)))
        .collect();
    assert_eq!(cells, [(102_229, 40_208), (152_135, 61_325), (202_906, 72_329)]);
    assert!(cells.windows(2).all(|w| w[1].0 > w[0].0 && w[1].1 > w[0].1), "{cells:?}");
    assert!(cells.iter().all(|(binary, wide)| wide < binary), "{cells:?}");
}

/// `kap --quick ablate`, A1: a wider tree shortens the fence reduction
/// and slows the consumer reads — the crossover EXPERIMENTS.md describes.
#[test]
fn a1_fence_falls_and_consumer_rises_with_arity() {
    let cells: Vec<(u64, u64)> = ablate::ARITIES
        .iter()
        .map(|&arity| ablate::arity_cell(32, 4, arity))
        .map(|r| (r.sync_ns, r.consumer_ns))
        .collect();
    assert_eq!(cells, [(160_280, 149_011), (129_288, 152_723), (105_057, 173_373)]);
    assert!(cells.windows(2).all(|w| w[1].0 < w[0].0 && w[1].1 > w[0].1), "{cells:?}");
}

/// `kap --quick ablate`, A3: every placement completes (each op of each
/// process `errnum == 0`, checked by the run itself), and the optimum
/// is interior — depth ≤ 2 beats both root-only and every broker.
#[test]
fn a3_completes_at_every_depth_with_an_interior_optimum() {
    let ns: Vec<u64> =
        ablate::PLACEMENTS.iter().map(|&d| ablate::placement_makespan_ns(32, 4, d)).collect();
    assert_eq!(ns, [256_107, 202_801, 186_185, 221_322]);
    assert!(ns[2] < ns[0] && ns[2] < ns[3], "{ns:?}");
}
