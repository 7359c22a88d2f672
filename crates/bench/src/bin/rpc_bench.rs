//! Generates `BENCH_rpc.json`: the sustained-RPC cell matrix of the
//! socket runtime, plus the frozen record of its PR-10 head-to-head
//! against the thread-per-link architecture it replaced.
//!
//! ```text
//! rpc_bench [--smoke] [--out PATH]
//! ```
//!
//! `--smoke` runs the reduced CI matrix (64 clients); without it the
//! full acceptance matrix runs (1k/4k clients — minutes, not seconds).
//! Output goes to `PATH` or stdout.

use flux_bench::rpc;

fn main() {
    let mut smoke = false;
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = Some(args.next().expect("--out needs a path")),
            other => {
                eprintln!("unknown argument {other:?}; usage: rpc_bench [--smoke] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    let doc = rpc::run_matrix(smoke);
    let errs = rpc::check_schema(&doc);
    assert!(errs.is_empty(), "generated document fails its own schema: {errs:?}");
    let text = doc.to_json_pretty();
    match out {
        Some(path) => std::fs::write(&path, text + "\n").expect("write output file"),
        None => println!("{text}"),
    }
}
