//! Determinism, executed: every seeded record the workspace pins comes
//! out byte-identical from separate processes.
//!
//! The test re-runs its own binary as [`CHILDREN`] concurrent children,
//! each told its index in [`CHILD_VAR`]. A child prints its records
//! between two marker lines; the parent compares the children's records
//! and names the first line that differs. The records are:
//!
//! * `kap`: `flux_kap::bench::run_matrix(true)`, the sim cells
//!   `BENCH_kap.json` pins, as JSON;
//! * `mc.<scenario>`: the seven CI flux-mc scenarios at a reduced budget,
//!   each its schedule / pruned / frontier / invalid / violation
//!   counts, plus the minimal trace `kvs_fence_mutant` is caught with;
//! * `chaos.<run>`: `flux_rt::chaos` sim runs with and without a kill,
//!   and one with four shard masters, each with its history verdict.
//!
//! A leak of process state into a record diverges because the children
//! differ in it: `RandomState` keys differ per process by construction;
//! child *i* holds *i* allocations of distinct sizes, heap- and
//! mmap-sized, so later addresses shift even with ASLR off; and child
//! *i* spawns *i* threads before the one that computes its records, so
//! thread ids differ too. A leak that reaches no record is invisible here.
//!
//! Run it alone: `cargo test -p flux-mc --test determinism`. One child's
//! records: `FLUX_DETERMINISM_CHILD=0 <test binary> --exact
//! seeded_records_are_byte_identical_across_processes --nocapture`.

use flux_kvs::KvsConfig;
use flux_mc::{explore, ExploreConfig, Scenario};
use flux_rt::chaos;
use std::process::{Command, Stdio};

/// Tells a re-run of this binary that it is child number `<value>`.
const CHILD_VAR: &str = "FLUX_DETERMINISM_CHILD";

/// Concurrent child processes per run.
const CHILDREN: usize = 4;

/// This test's name, for the children's `--exact` filter.
const TEST: &str = "seeded_records_are_byte_identical_across_processes";

const BEGIN: &str = "=== determinism records begin ===";
const END: &str = "=== determinism records end ===";

/// The CI explorations (`.github/workflows/ci.yml`), each at this many
/// schedules instead of CI's thousands.
const SCENARIOS: [&str; 7] = [
    "kvs_fence",
    "kvs_commit",
    "barrier",
    "kvs_batch",
    "kvs_shard_fence",
    "kvs_shard_watch",
    "kvs_load_chain",
];
const SCHEDULES: usize = 400;

/// Chaos seeds, each run with and without a broker kill, at the sim
/// sweeps' time scale.
const CHAOS_SEEDS: [u64; 4] = [1, 7, 13, 19];
const CHAOS_SCALE_NS: u64 = 100_000_000;

#[test]
fn seeded_records_are_byte_identical_across_processes() {
    match std::env::var(CHILD_VAR) {
        Ok(index) => child(index.parse().expect("child index")),
        Err(_) => parent(),
    }
}

fn parent() {
    let exe = std::env::current_exe().expect("own test binary");
    let children: Vec<_> = (0..CHILDREN)
        .map(|i| {
            Command::new(&exe)
                .args(["--exact", TEST, "--nocapture", "--test-threads", "1"])
                .env(CHILD_VAR, i.to_string())
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn child")
        })
        .collect();
    let records: Vec<String> = children
        .into_iter()
        .enumerate()
        .map(|(i, c)| {
            let out = c.wait_with_output().expect("child output");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "child {i} failed: {}\n{stdout}\n{}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            );
            let (_, rest) = stdout.split_once(BEGIN).expect("child printed its records");
            let (body, _) = rest.split_once(END).expect("child finished its records");
            body.trim().to_owned()
        })
        .collect();
    for (i, other) in records.iter().enumerate().skip(1) {
        if let Some(diff) = first_divergence(&records[0], other) {
            panic!("child 0 and child {i} disagree: {diff}");
        }
    }
}

/// Where `b` first differs from `a`: the record, the line within it,
/// and both lines.
fn first_divergence(a: &str, b: &str) -> Option<String> {
    let (a, b): (Vec<&str>, Vec<&str>) = (a.lines().collect(), b.lines().collect());
    let n = (0..a.len().max(b.len())).find(|&n| a.get(n) != b.get(n))?;
    let start = a[..n.min(a.len())].iter().rposition(|l| l.starts_with("## ")).unwrap_or(0);
    let record = a.get(start).and_then(|l| l.strip_prefix("## ")).unwrap_or("?");
    Some(format!(
        "record `{record}`, line {}:\n  child 0: {}\n  other:   {}",
        n - start,
        a.get(n).unwrap_or(&"(end)"),
        b.get(n).unwrap_or(&"(end)")
    ))
}

fn child(index: usize) {
    for _ in 0..index {
        std::thread::spawn(|| {}).join().expect("throwaway thread");
    }
    let records = std::thread::spawn(move || {
        // Held while the records are computed, on the thread computing them.
        let held: Vec<Vec<u8>> = (0..index)
            .map(|k| if k % 2 == 0 { vec![1; 24 + 40 * k] } else { vec![1; (256 << 10) + 4096 * k] })
            .collect();
        let records = records();
        drop(held);
        records
    })
    .join()
    .expect("record thread");
    print!("\n{BEGIN}\n{records}{END}\n");
}

fn records() -> String {
    let mut out = format!("## kap\n{}\n", flux_kap::bench::run_matrix(true).to_json_pretty());

    for name in SCENARIOS {
        let cfg = ExploreConfig { max_schedules: SCHEDULES, ..ExploreConfig::default() };
        let report = explore(&Scenario::by_name(name).expect("CI scenario"), &cfg);
        let s = &report.stats;
        out += &format!(
            "## mc.{name}\nschedules {} pruned {} max_frontier {} invalid {} violations {}\n",
            s.schedules,
            s.pruned,
            s.max_frontier,
            s.invalid,
            report.violations.len()
        );
    }
    out += "## mc.kvs_fence_mutant\n";
    let cfg = ExploreConfig { stop_at_first: true, ..ExploreConfig::default() };
    for found in explore(&Scenario::kvs_fence_mutant(), &cfg).violations {
        out += &format!("{}\n{}\n", found.trace, found.violation);
    }

    let runs = CHAOS_SEEDS
        .iter()
        .flat_map(|&seed| {
            [false, true].map(|kill| {
                let w = chaos::workload(seed, CHAOS_SCALE_NS, kill);
                (format!("{seed}.kill={kill}"), w, KvsConfig::default())
            })
        })
        .chain([(
            "3.shards=4".to_owned(),
            chaos::shard_workload(3, 4, CHAOS_SCALE_NS, true),
            KvsConfig { shards: 4, ..KvsConfig::default() },
        )]);
    for (name, w, kvs) in runs {
        let report = chaos::run_sim_kvs(&w, kvs);
        out += &format!(
            "## chaos.{name}\nmakespan_ns {} events {} bytes {}\nverdict {:?}\n",
            report.makespan_ns,
            report.events,
            report.bytes,
            chaos::check_run(&w, &report)
        );
        for (i, o) in report.outcomes.iter().enumerate() {
            out += &format!("script {i}: {o:?}\n");
        }
    }
    out
}
