//! `flux-mc` CLI: explore a scenario or replay a violation trace.
//!
//! ```text
//! flux-mc [scenario] [--schedules N] [--stop-at-first]
//! FLUX_MC_TRACE=<trace> flux-mc     # replay the trace a violation printed
//! flux-mc --list
//! ```

#![forbid(unsafe_code)]

use flux_mc::{explore, replay_trace, ExploreConfig, Scenario};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: flux-mc [scenario] [--schedules N] [--stop-at-first]\n       \
         FLUX_MC_TRACE=<trace> flux-mc\n       flux-mc --list"
    );
    ExitCode::FAILURE
}

fn replay(trace: &str) -> ExitCode {
    match replay_trace(trace) {
        Ok(out) => match out.violation {
            Some(v) => {
                println!("violation reproduced after {} events: {v}", out.events);
                ExitCode::SUCCESS
            }
            None => {
                println!("schedule ran clean ({} events)", out.events);
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("replay failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if let Ok(trace) = std::env::var("FLUX_MC_TRACE") {
        return replay(&trace);
    }

    let mut scenario_name: Option<String> = None;
    let mut cfg = ExploreConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" => {
                for name in Scenario::clean_names() {
                    println!("{name}");
                }
                println!("kvs_fence_mutant\nkvs_commit_mutant");
                return ExitCode::SUCCESS;
            }
            "--schedules" => {
                let Some(n) = it.next().and_then(|s| s.parse().ok()) else { return usage() };
                cfg.max_schedules = n;
            }
            "--stop-at-first" => cfg.stop_at_first = true,
            name if scenario_name.is_none() && !name.starts_with('-') => {
                scenario_name = Some(name.to_owned());
            }
            _ => return usage(),
        }
    }

    let name = scenario_name.unwrap_or_else(|| "kvs_fence".to_owned());
    let Some(scenario) = Scenario::by_name(&name) else {
        eprintln!("unknown scenario {name:?} (try --list)");
        return ExitCode::FAILURE;
    };

    let report = explore(&scenario, &cfg);
    println!(
        "{name}: {} schedules explored, {} pruned, max frontier {}",
        report.stats.schedules, report.stats.pruned, report.stats.max_frontier
    );
    for v in &report.violations {
        println!("violation: {}", v.violation);
        println!("  replay with: FLUX_MC_TRACE='{}'", v.trace);
    }
    if report.violations.is_empty() {
        println!("no violations");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
