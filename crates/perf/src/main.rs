//! `flux-perf`: the repo's one benchmark.
//!
//! Four seeded workloads measured end to end from outside the program,
//! and a traced run that adds layer probes. See `crates/perf/README.md`
//! for every metric, every workload and the pinned API surface.
//!
//! ```text
//! flux-perf run   [--workload W] [--seed N] [--out F]   fixed reps, one child process per workload
//! flux-perf trace [--workload W] [--seed N] [--out F]   the traced run; spans go to F (trace.json)
//! flux-perf check A.json B.json                         is B worse than A?
//! flux-perf smoke                                       seconds-fast variants of everything
//! flux-perf bench --workload W --seed N --seconds S --trace 0|1
//!                                                       one workload, one JSON line (BENCHMARK.json)
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod bench;
mod check;
mod des;
mod gen;
mod live;
mod probe;
mod report;
mod stats;
mod sys;
mod trace;
mod yardstick;

use bench::Budget;
use flux_value::Value;
use gen::{Scale, Workload, DEFAULT_SEED};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// `--name value` arguments after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(name) = it.next() {
            let name = name.strip_prefix("--").ok_or_else(|| format!("unexpected `{name}`"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            flags.push((name.to_owned(), value.clone()));
        }
        Ok(Flags(flags))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| v.parse().map_err(|_| format!("--{name}: cannot read `{v}`")))
            .transpose()
    }

    fn seed(&self) -> Result<u64, String> {
        Ok(self.parsed("seed")?.unwrap_or(DEFAULT_SEED))
    }

    /// The workloads `--workload` selects: one, or all four.
    fn workloads(&self) -> Result<Vec<Workload>, String> {
        match self.get("workload") {
            None => Ok(Workload::ALL.to_vec()),
            Some(name) => Workload::from_name(name)
                .map(|w| vec![w])
                .ok_or_else(|| format!("unknown workload `{name}`")),
        }
    }
}

/// A timing from an unoptimised build says nothing about the program.
fn refuse_debug_build() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to time a debug build: use `cargo run --release`".into());
    }
    Ok(())
}

/// `bench`: one workload in this process. Prints the driver's JSON line
/// last, or with `--format full` this workload's whole result entry.
fn bench_command(flags: &Flags, process_start: Instant) -> Result<bool, String> {
    let [w] = flags.workloads()?[..] else { return Err("bench needs --workload".into()) };
    let traced = match flags.get("trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace is 0 or 1, not `{other}`")),
    };
    refuse_debug_build()?;
    let budget = match flags.parsed::<f64>("seconds")? {
        Some(s) => Budget::Seconds(s),
        None => Budget::fixed(w, Scale::Full),
    };
    let outcome =
        bench::run_workload(w, flags.seed()?, Scale::Full, budget, traced, process_start)?;
    if flags.get("format") == Some("full") {
        println!("{}", outcome.to_value().to_json());
    } else {
        println!("{}", outcome.driver_line(traced)?);
    }
    Ok(outcome.failed == 0)
}

/// `run` / `trace`: every selected workload in a child process of its
/// own, so that `peak_rss_mb` and every cache start fresh per workload.
fn run_command(flags: &Flags, traced: bool) -> Result<bool, String> {
    refuse_debug_build()?;
    let seed = flags.seed()?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut entries = Vec::new();
    let mut spans = Vec::new();
    let mut clean = true;
    for w in flags.workloads()? {
        eprintln!("running {} (seed {seed}{}) ...", w.name(), if traced { ", traced" } else { "" });
        let child = Command::new(&exe)
            .args(["bench", "--format", "full", "--workload", w.name()])
            .args(["--seed", &seed.to_string(), "--trace", if traced { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .output()
            .map_err(|e| format!("cannot start the {} child: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let entry = stdout.lines().last().and_then(|l| Value::parse(l).ok());
        let Some(mut entry) = entry else {
            return Err(format!("the {} child produced no result ({})", w.name(), child.status));
        };
        clean &= child.status.success();
        if let Some(s) = entry.as_object_mut().and_then(|m| m.remove("spans")) {
            spans.push((w.name().to_owned(), s));
        }
        report::print_entry(w, &entry);
        entries.push((w.name().to_owned(), entry));
    }
    let doc = report::document(if traced { "trace" } else { "run" }, seed, entries);
    let write = |path: &str, doc: &Value| {
        std::fs::write(path, doc.to_json_pretty() + "\n")
            .map_err(|e| format!("cannot write {path}: {e}"))
    };
    if traced {
        // trace.json: the result document plus the spans of each workload.
        let mut doc = doc;
        doc.insert("spans", Value::Object(spans.into_iter().collect()));
        write(flags.get("out").unwrap_or("trace.json"), &doc)?;
    } else if let Some(path) = flags.get("out") {
        write(path, &doc)?;
    }
    Ok(clean)
}

/// `check A.json B.json`.
fn check_command(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else { return Err("check needs two result files".into()) };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Value::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = check::compare(&load(a)?, &load(b)?)?;
    Ok(!check::print(&rows))
}

/// `smoke`: every workload at smoke scale, untraced then traced, in this
/// process; then the result document through its own parser and `check`.
fn smoke_command(process_start: Instant) -> Result<bool, String> {
    let mut entries = Vec::new();
    let mut clean = true;
    for w in Workload::ALL {
        for traced in [false, true] {
            let budget = Budget::fixed(w, Scale::Smoke);
            let out =
                bench::run_workload(w, DEFAULT_SEED, Scale::Smoke, budget, traced, process_start)?;
            out.driver_line(traced)?;
            clean &= out.failed == 0;
            if traced {
                report::print_entry(w, &out.to_value());
                entries.push((w.name().to_owned(), out.to_value()));
            }
        }
    }
    let doc = report::document("smoke", DEFAULT_SEED, entries);
    let reparsed = Value::parse(&doc.to_json_pretty()).map_err(|e| format!("own output: {e}"))?;
    let rows = check::compare(&reparsed, &doc)?;
    Ok(clean && !rows.is_empty() && !check::print(&rows))
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("usage: flux-perf run|trace|check|smoke|bench ... (see crates/perf/README.md)");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "check" => check_command(rest),
        "smoke" => smoke_command(process_start),
        "run" | "trace" | "bench" => Flags::parse(rest).and_then(|flags| match command.as_str() {
            "bench" => bench_command(&flags, process_start),
            traced => run_command(&flags, traced == "trace"),
        }),
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("flux-perf: verification failed or a metric got worse");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("flux-perf: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The crate's `cargo test` is the smoke run: all four generators,
    /// the read-back verifier, the determinism check and the output
    /// schema, end to end.
    #[test]
    fn smoke_run_is_clean() {
        assert_eq!(smoke_command(Instant::now()), Ok(true));
    }

    #[test]
    fn a_debug_build_is_not_timed() {
        assert_eq!(refuse_debug_build().is_err(), cfg!(debug_assertions));
        let flags = Flags::parse(&["--workload".to_owned(), "live_ping".to_owned()]).unwrap();
        assert_eq!(bench_command(&flags, Instant::now()).is_err(), cfg!(debug_assertions));
    }

    #[test]
    fn flags_parse_pairs_and_reject_strays() {
        let args: Vec<String> =
            ["--workload", "live_ping", "--seed", "9"].map(String::from).to_vec();
        let flags = Flags::parse(&args).unwrap();
        assert_eq!(flags.workloads().unwrap(), vec![Workload::LivePing]);
        assert_eq!(flags.seed().unwrap(), 9);
        assert!(Flags::parse(&["stray".to_owned()]).is_err());
        assert!(Flags::parse(&["--seed".to_owned()]).is_err());
        let none = Flags::parse(&[]).unwrap();
        assert_eq!((none.seed().unwrap(), none.workloads().unwrap().len()), (DEFAULT_SEED, 4));
        let bad = Flags::parse(&["--workload".to_owned(), "nope".to_owned()]).unwrap();
        assert!(bad.workloads().is_err());
    }
}
