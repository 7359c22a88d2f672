//! What the benchmark reads from the host: `/proc` counters of its own
//! process and the build's provenance.

use std::process::Command;

/// Parses the first unsigned number after `key` in a `/proc` status file.
fn status_field(text: &str, key: &str) -> Option<u64> {
    let rest = text.lines().find_map(|l| l.strip_prefix(key))?;
    rest.split_whitespace().next()?.parse().ok()
}

/// Peak resident set size of this process so far (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// A snapshot of what this process's live threads have cost so far.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    /// Time on a CPU, summed over threads, ns (`/proc/self/task/*/schedstat`).
    pub cpu_ns: u64,
    /// Voluntary context switches, summed over threads: each is one
    /// wake-up of a thread that had gone to sleep.
    pub wakeups: u64,
}

impl Usage {
    /// Reads the counters of every thread alive now. Windows are taken
    /// between two reads with the same threads alive at both.
    pub fn now() -> Usage {
        let mut usage = Usage::default();
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return usage };
        for task in tasks.flatten() {
            let dir = task.path();
            if let Ok(sched) = std::fs::read_to_string(dir.join("schedstat")) {
                usage.cpu_ns +=
                    sched.split_whitespace().next().and_then(|f| f.parse().ok()).unwrap_or(0);
            }
            if let Ok(status) = std::fs::read_to_string(dir.join("status")) {
                usage.wakeups += status_field(&status, "voluntary_ctxt_switches:").unwrap_or(0);
            }
        }
        usage
    }
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of a command's standard output, or `"unknown"`.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `rustc --version` of the toolchain on the path.
pub fn rustc_version() -> String {
    first_line_of("rustc", &["--version"])
}

/// The checked-out commit, or `"unknown"` outside a git work tree.
pub fn git_commit() -> String {
    first_line_of("git", &["rev-parse", "HEAD"])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_counters_are_readable_and_grow() {
        assert!(peak_rss_mb() > 0.0);
        let before = Usage::now();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(Usage::now().cpu_ns > before.cpu_ns);
        assert!(nproc() >= 1);
    }

    #[test]
    fn status_fields_parse() {
        let text = "Name:\tx\nVmHWM:\t    1592 kB\nvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_field(text, "VmHWM:"), Some(1592));
        assert_eq!(status_field(text, "voluntary_ctxt_switches:"), Some(7));
        assert_eq!(status_field(text, "VmPeak:"), None);
    }
}
