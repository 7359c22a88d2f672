//! The KAP driver: regenerates every virtual-time figure of the paper's
//! evaluation and every virtual-time ablation of ours.
//!
//! ```text
//! kap [--quick] [fig1|fig2|fig3|fig4a|fig4b|model|table1|scaling|ablate|all]
//! kap bench [--quick] [--out FILE] [--check REF]
//! kap scale-smoke [--ranks N] [--budget-secs S] [--shards N]
//! ```
//!
//! Full mode sweeps the paper's scales (64–512 nodes × 16 processes =
//! 1024–8192 testers). `--quick` runs a reduced sweep for smoke testing.
//! Output is markdown; `kap all` is the committed `kap_results.md`.
//!
//! `bench` runs the evaluation-harness matrix instead and emits the
//! machine-readable `BENCH_kap.json` document (schema
//! `flux-kap-bench/v1`). `--quick` restricts to the deterministic
//! simulator cells; `--check REF` validates the fresh run against a
//! committed reference (schema + ≤2× makespan on sim cells) and exits
//! non-zero on failure — the CI bench-smoke job.

use flux_kap::ablate;
use flux_kap::bench;
use flux_kap::layout::DirLayout;
use flux_kap::model;
use flux_kap::report::{ms, Table};
use flux_kap::{run_kap, KapParams};
use flux_rt::transport::SimTransport;
use flux_sim::NetParams;

#[global_allocator]
static ALLOC: flux_sys::CountingAlloc = flux_sys::CountingAlloc;

/// The value sizes of the paper's sweeps (bytes).
const VSIZES: [usize; 7] = [8, 32, 128, 512, 2048, 8192, 32768];

struct Cfg {
    node_scales: Vec<u32>,
    procs_per_node: u32,
    vsizes: Vec<usize>,
    /// Session sizes of the Fig. 1 wire-up sweep (no tester processes,
    /// so the reduced sweep can afford more brokers than `node_scales`).
    wireup_sizes: Vec<u32>,
}

impl Cfg {
    fn new(quick: bool) -> Cfg {
        if quick {
            Cfg {
                node_scales: vec![8, 16, 32],
                procs_per_node: 4,
                vsizes: vec![8, 512, 8192],
                wireup_sizes: vec![16, 64, 256],
            }
        } else {
            let node_scales = vec![64, 128, 256, 512];
            Cfg {
                wireup_sizes: node_scales.clone(),
                node_scales,
                procs_per_node: 16,
                vsizes: VSIZES.to_vec(),
            }
        }
    }

    fn params(&self, nodes: u32) -> KapParams {
        KapParams::populated(nodes, self.procs_per_node)
    }

    /// The largest scale of the sweep: where the ablations run.
    fn top_nodes(&self) -> u32 {
        *self.node_scales.last().expect("nonempty sweep")
    }
}

/// Fig. 1: virtual time for a fresh session to complete one
/// session-wide barrier, vs session size, binary vs 16-ary tree.
fn fig1(cfg: &Cfg) {
    let mut t = Table::new(
        "Fig. 1 — comms-session wire-up (first session-wide barrier)",
        &["brokers", "arity-2 (ms)", "arity-16 (ms)"],
    );
    for &size in &cfg.wireup_sizes {
        t.row(vec![
            size.to_string(),
            ms(ablate::wireup_ns(size, 2)),
            ms(ablate::wireup_ns(size, 16)),
        ]);
        eprintln!("fig1: {size} brokers done");
    }
    println!("{}", t.render());
}

/// Fig. 2: maximum producer-phase latency (`kvs_put`) vs producer count,
/// one series per value size.
fn fig2(cfg: &Cfg) {
    let mut header = vec!["producers".to_string()];
    header.extend(cfg.vsizes.iter().map(|v| format!("vsize-{v} (ms)")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "Fig. 2 — producer phase max latency (kvs_put), fully populated",
        &header_refs,
    );
    for &nodes in &cfg.node_scales {
        let mut row = vec![cfg.params(nodes).total_procs().to_string()];
        for &vsize in &cfg.vsizes {
            let mut p = cfg.params(nodes);
            p.value_size = vsize;
            let r = run_kap(&p);
            row.push(ms(r.producer_ns));
        }
        t.row(row);
        eprintln!("fig2: {nodes} nodes done");
    }
    println!("{}", t.render());
}

/// Fig. 3: maximum synchronization-phase latency (`kvs_fence`) vs
/// producer count, unique vs redundant values.
fn fig3(cfg: &Cfg) {
    let mut header = vec!["producers".to_string()];
    for &v in &cfg.vsizes {
        header.push(format!("vsize-{v} (ms)"));
        header.push(format!("red-vsize-{v} (ms)"));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "Fig. 3 — synchronization phase max latency (kvs_fence), unique vs redundant values",
        &header_refs,
    );
    for &nodes in &cfg.node_scales {
        let mut row = vec![cfg.params(nodes).total_procs().to_string()];
        for &vsize in &cfg.vsizes {
            for redundant in [false, true] {
                let mut p = cfg.params(nodes);
                p.value_size = vsize;
                p.redundant = redundant;
                let r = run_kap(&p);
                row.push(ms(r.sync_ns));
            }
        }
        t.row(row);
        eprintln!("fig3: {nodes} nodes done");
    }
    println!("{}", t.render());
}

/// Fig. 4: maximum consumer-phase latency (`kvs_get`) vs consumer count,
/// one series per per-consumer access count; 8-byte values.
fn fig4(cfg: &Cfg, layout: DirLayout, label: &str) {
    let accesses = [1u64, 4, 16];
    let mut header = vec!["consumers".to_string()];
    header.extend(accesses.iter().map(|a| format!("access-{a} (ms)")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(label, &header_refs);
    for &nodes in &cfg.node_scales {
        let mut row = vec![cfg.params(nodes).total_procs().to_string()];
        for &naccess in &accesses {
            let mut p = cfg.params(nodes);
            p.naccess = naccess;
            // Collective (overlapping) reads: every consumer reads the
            // same `naccess` objects — the paper's "G objects are read
            // collectively by C consumers". The directory object (G
            // entries) dominates the transfer in the single-dir layout.
            p.stride = 0;
            p.layout = layout;
            let r = run_kap(&p);
            row.push(ms(r.consumer_ns));
        }
        t.row(row);
        eprintln!("fig4 {layout:?}: {nodes} nodes done");
    }
    println!("{}", t.render());
}

/// §V-B model check: measured consumer latency vs `log2(C) × T(G)`, and
/// the G ∝ C linear-growth case.
fn model_check(cfg: &Cfg) {
    let net = NetParams::default();
    let mut t = Table::new(
        "Model — measured single-directory consumer latency vs log2(C)·T(G)",
        &["consumers", "G", "measured (ms)", "model (ms)", "ratio"],
    );
    let mut points = Vec::new();
    for &nodes in &cfg.node_scales {
        let mut p = cfg.params(nodes);
        p.naccess = 1;
        p.stride = 0;
        let r = run_kap(&p);
        let c = p.total_procs();
        let g = p.total_objects();
        let t_g = model::transfer_time_ns(
            g,
            p.value_size as u64,
            model::dir_entry_bytes(g, p.value_size),
            net.net_latency.as_nanos(),
            net.net_ns_per_kib,
        );
        let predicted = model::consumer_latency_model_ns(c, t_g);
        let ratio = r.consumer_ns as f64 / predicted as f64;
        points.push((c as f64, r.consumer_ns as f64 / 1e6));
        t.row(vec![
            c.to_string(),
            g.to_string(),
            ms(r.consumer_ns),
            ms(predicted),
            format!("{ratio:.2}"),
        ]);
        eprintln!("model: {nodes} nodes done");
    }
    println!("{}", t.render());
    // Shape verdict: G grows with C here, so the model predicts linear
    // growth in C (the paper's geometric-series argument).
    let r2_linear = model::r_squared(&points);
    let log_points: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.log2(), y)).collect();
    let r2_log = model::r_squared(&log_points);
    println!(
        "Shape check (G grows with C): R²(latency ~ C) = {r2_linear:.4}, \
         R²(latency ~ log2 C) = {r2_log:.4} — linear fit should win.\n"
    );
}

/// Scaling shapes: runs the `flux-kap-bench/v1` scale sweep
/// (128→8192 ranks) and renders the three shape claims the harness
/// tests pin — fence consumer latency ~linear in ranks, `wait_version`
/// consumer latency ~flat, and the unique/redundant fence ratio
/// widening with scale.
fn scaling() {
    let cells = bench::scale_sweep_cells();
    let run_max = |name: &str| -> (u64, u64) {
        let cell = cells
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("sweep cell {name} missing"));
        let run = flux_kap::run_kap_full(&cell.params, &SimTransport::default());
        let sync = run.phases.iter().map(|ph| ph.sync_ns).max().unwrap_or(0);
        let consumer = run.phases.iter().map(|ph| ph.consumer_ns).max().unwrap_or(0);
        (sync, consumer)
    };
    let mut t = Table::new(
        "Scaling shapes — flux-kap-bench/v1 scale sweep (sim, max latency)",
        &[
            "ranks",
            "fence sync unique (ms)",
            "fence sync redundant (ms)",
            "unique/redundant",
            "fence consumer (ms)",
            "wait_version consumer (ms)",
        ],
    );
    let mut fence_consumer = Vec::new();
    let mut waitv_consumer = Vec::new();
    for &ranks in &bench::SWEEP_RANKS {
        let (u_sync, u_cons) = run_max(&format!("scale/fence/unique/r{ranks}"));
        let (r_sync, _) = run_max(&format!("scale/fence/redundant/r{ranks}"));
        let (_, w_cons) = run_max(&format!("scale/wait_version/r{ranks}"));
        fence_consumer.push((ranks as f64, u_cons as f64));
        waitv_consumer.push((ranks as f64, w_cons as f64));
        t.row(vec![
            ranks.to_string(),
            ms(u_sync),
            ms(r_sync),
            format!("{:.2}", u_sync as f64 / r_sync.max(1) as f64),
            ms(u_cons),
            ms(w_cons),
        ]);
        eprintln!("scaling: {ranks} ranks done");
    }
    println!("{}", t.render());
    let slope = |s: &[(f64, f64)]| {
        let (x0, y0) = s[0];
        let (x1, y1) = *s.last().expect("nonempty sweep");
        (y1 / y0).ln() / (x1 / x0).ln()
    };
    println!(
        "Shape check (log-log endpoint slopes): fence consumer {:.2} (~1 = linear), \
         wait_version consumer {:.2} (~0 = flat).\n",
        slope(&fence_consumer),
        slope(&waitv_consumer)
    );
}

/// Ablations A1 (tree arity) and A3 (KVS placement depth), both at the
/// largest scale of the sweep.
fn ablations(cfg: &Cfg) {
    let (nodes, ppn) = (cfg.top_nodes(), cfg.procs_per_node);
    let testers = nodes * ppn;
    let mut t = Table::new(
        format!("Ablation A1 — tree arity, {testers} testers, 2 KiB values (max latency)"),
        &["arity", "fence (ms)", "consumer (ms)"],
    );
    for arity in ablate::ARITIES {
        let r = ablate::arity_cell(nodes, ppn, arity);
        t.row(vec![arity.to_string(), ms(r.sync_ns), ms(r.consumer_ns)]);
        eprintln!("ablate A1: arity {arity} done");
    }
    println!("{}", t.render());
    let mut t = Table::new(
        format!("Ablation A3 — KVS placement depth, {testers} testers (put + fence + get makespan)"),
        &["kvs loaded at", "makespan (ms)"],
    );
    for depth in ablate::PLACEMENTS {
        let label = depth.map_or("every broker".to_owned(), |d| format!("depth <= {d}"));
        t.row(vec![label, ms(ablate::placement_makespan_ns(nodes, ppn, depth))]);
        eprintln!("ablate A3: {depth:?} done");
    }
    println!("{}", t.render());
}

/// Table I: the module inventory, each exercised in-process.
fn table1() {
    use flux_broker::client::ClientCore;
    use flux_broker::testing::TestNet;
    use flux_modules::standard_modules;
    use flux_proto::{
        BarrierMethod, GroupMethod, HbMethod, KvsMethod, LiveMethod, LogMethod, MonMethod,
        ResvcMethod, WexecMethod,
    };
    use flux_value::Value;
    use flux_wire::{Rank, Topic};

    let mut t = Table::new(
        "Table I — prototyped comms modules (each exercised on a 7-broker session)",
        &["module", "exercise", "status"],
    );
    let mut net = TestNet::new(7, 2, |_| standard_modules());
    let mut check = |name: &str, what: &str, topic: Topic, payload: Value| {
        let mut c = ClientCore::new(Rank(5), 42);
        let req = c.request(topic, payload, 0);
        net.client_send(Rank(5), 42, req);
        let mut replies = net.take_client_msgs(Rank(5), 42);
        for _ in 0..500 {
            if !replies.is_empty() {
                break;
            }
            if !net.fire_next_timer() {
                break;
            }
            replies.extend(net.take_client_msgs(Rank(5), 42));
        }
        let status = match replies.first() {
            Some(m) if !m.is_error() => "ok",
            Some(_) => "error",
            None => "no reply",
        };
        t.row(vec![name.into(), what.into(), status.into()]);
    };
    check("hb", "epoch query", HbMethod::Epoch.topic(), Value::object());
    check("live", "status query", LiveMethod::Status.topic(), Value::object());
    check(
        "log",
        "msg append",
        LogMethod::Msg.topic(),
        Value::from_pairs([("level", Value::Int(6)), ("text", Value::from("smoke"))]),
    );
    check(
        "mon",
        "add sampler",
        MonMethod::Add.topic(),
        Value::from_pairs([("name", Value::from("smoke")), ("metric", Value::from("load"))]),
    );
    check(
        "group",
        "join",
        GroupMethod::Join.topic(),
        Value::from_pairs([("name", Value::from("smoke"))]),
    );
    check(
        "barrier",
        "1-proc barrier",
        BarrierMethod::Enter.topic(),
        Value::from_pairs([("name", Value::from("smoke")), ("nprocs", Value::Int(1))]),
    );
    check("kvs", "put", KvsMethod::Put.topic(), flux_kvs::msg::put("smoke.k", Value::Int(1)));
    check(
        "wexec",
        "run echo",
        WexecMethod::Run.topic(),
        Value::from_pairs([
            ("jobid", Value::Int(9)),
            ("cmd", Value::from("echo hi")),
            ("targets", Value::from("all")),
        ]),
    );
    check("resvc", "status", ResvcMethod::Status.topic(), Value::object());
    println!("{}", t.render());
}

/// The `bench` subcommand: run the matrix, write/print the JSON, and
/// optionally gate against a reference document.
fn bench_cmd(args: &[String]) {
    let quick = args.iter().any(|a| a == "--quick");
    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    eprintln!("KAP bench: running {} matrix…", if quick { "quick (sim-only)" } else { "full" });
    let doc = bench::run_matrix(quick);
    let schema_errs = bench::check_schema(&doc);
    if !schema_errs.is_empty() {
        for e in &schema_errs {
            eprintln!("schema: {e}");
        }
        std::process::exit(1);
    }
    let json = doc.to_json_pretty();
    match flag_value("--out") {
        Some(path) => {
            std::fs::write(path, format!("{json}\n")).expect("write bench output");
            eprintln!("KAP bench: wrote {path}");
        }
        None => println!("{json}"),
    }
    if let Some(ref_path) = flag_value("--check") {
        let text = std::fs::read_to_string(ref_path).expect("read reference");
        let reference = match flux_value::Value::parse(&text) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("check: reference {ref_path} is not valid JSON: {e:?}");
                std::process::exit(1);
            }
        };
        let mut errs = bench::check_schema(&reference);
        errs.extend(bench::check_regression(&doc, &reference, 2.0));
        if !errs.is_empty() {
            for e in &errs {
                eprintln!("check: {e}");
            }
            std::process::exit(1);
        }
        eprintln!("KAP bench: within 2x of {ref_path} on all deterministic cells");
    }
}

/// The `scale-smoke` subcommand: run one mid-scale sweep cell and fail
/// if it misses its wall-clock budget — the CI guard that paper-scale
/// DES cells keep completing in seconds, with the engine's own
/// events/sec self-report alongside.
fn scale_smoke_cmd(args: &[String]) {
    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let ranks: u32 = flag_value("--ranks").map_or(2048, |s| s.parse().expect("--ranks N"));
    let budget_secs: u64 =
        flag_value("--budget-secs").map_or(60, |s| s.parse().expect("--budget-secs S"));
    let shards: u32 = flag_value("--shards").map_or(1, |s| s.parse().expect("--shards N"));
    // With --shards the smoke runs the concurrent-commit cell (the
    // sharded hot path); without it, the classic collective-fence cell.
    let cell = if shards > 1 {
        bench::commit_cell(ranks, shards)
    } else {
        let name = format!("scale/fence/unique/r{ranks}");
        bench::scale_sweep_cells()
            .into_iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("--ranks must be one of {:?}", bench::SWEEP_RANKS))
    };
    let name = cell.name.clone();
    let start = std::time::Instant::now();
    let (run, heap) = bench::run_counted(&cell);
    let wall = start.elapsed();
    eprintln!(
        "scale-smoke {name}: wall {wall:.2?} (engine {:.2?}), {} events, \
         {:.0} events/s, makespan {:.1} ms, heap peak {} B ({} allocations, {} B asked)",
        std::time::Duration::from_nanos(run.wall_ns),
        run.events,
        run.events_per_sec,
        run.makespan_ns as f64 / 1e6,
        heap.peak_bytes,
        heap.calls,
        heap.bytes,
    );
    if wall.as_secs() >= budget_secs {
        eprintln!("scale-smoke: {wall:.2?} exceeds the {budget_secs}s budget");
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("bench") {
        bench_cmd(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("scale-smoke") {
        scale_smoke_cmd(&args[1..]);
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let what = args.iter().find(|a| !a.starts_with("--")).map(String::as_str).unwrap_or("all");
    let cfg = Cfg::new(quick);
    eprintln!(
        "KAP: scales {:?} nodes x {} procs/node ({} mode)",
        cfg.node_scales,
        cfg.procs_per_node,
        if quick { "quick" } else { "full" }
    );
    match what {
        "fig1" => fig1(&cfg),
        "fig2" => fig2(&cfg),
        "fig3" => fig3(&cfg),
        "fig4a" => fig4(&cfg, DirLayout::Single, "Fig. 4a — consumer phase max latency (kvs_get), single directory"),
        "fig4b" => fig4(&cfg, DirLayout::Split128, "Fig. 4b — consumer phase max latency (kvs_get), directories of ≤128 objects"),
        "model" => model_check(&cfg),
        "table1" => table1(),
        "scaling" => scaling(),
        "ablate" => ablations(&cfg),
        "all" => {
            table1();
            fig2(&cfg);
            fig3(&cfg);
            fig4(&cfg, DirLayout::Single, "Fig. 4a — consumer phase max latency (kvs_get), single directory");
            fig4(&cfg, DirLayout::Split128, "Fig. 4b — consumer phase max latency (kvs_get), directories of ≤128 objects");
            model_check(&cfg);
            scaling();
            fig1(&cfg);
            ablations(&cfg);
        }
        other => {
            eprintln!(
                "unknown sub-command {other}; use \
                 fig1|fig2|fig3|fig4a|fig4b|model|table1|scaling|ablate|all"
            );
            std::process::exit(2);
        }
    }
}
